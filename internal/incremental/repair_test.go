package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fullRescanRepair is the reference Repair: every pass retests every
// queued edge with the separator criterion, with no endpoint stamps.
// Like RepairContext it counts its separator checks in m.retests and
// observes ctx at the same queue slots, so a deterministic context
// cancels both at the same point.
func fullRescanRepair(m *Maintainer, ctx context.Context) ([]Edge, error) {
	var admitted []Edge
	tested := 0
	for changed := true; changed; {
		changed = false
		rest := m.deferred[:0]
		for _, e := range m.deferred {
			if tested++; tested%256 == 0 && ctx.Err() != nil {
				rest = append(rest, e)
				continue
			}
			m.retests++
			if ok, _ := m.admit(e.U, e.V, false); ok {
				delete(m.inDeferred, int64(e.U)<<32|int64(e.V))
				admitted = append(admitted, e)
				changed = true
			} else {
				rest = append(rest, e)
			}
		}
		m.deferred = rest
		if err := ctx.Err(); err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// countdownCtx reports cancellation from its n-th Err call on, which
// cancels a repair at a reproducible queue slot.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// seedable reports whether {u, v} can be seeded into m without breaking
// chordality, using a fresh checker so m's hub cache is untouched.
func seedable(m *Maintainer, u, v int32) bool {
	if u == v || m.HasEdge(u, v) {
		return false
	}
	if m.find(u) != m.find(v) {
		return true
	}
	c := NewChecker(m.Vertices(), -1)
	return c.HasCommonNeighbor(m.adj, u, v) && c.CanAddEdge(m.adj, u, v)
}

// TestRepairMatchesFullRescan runs the incremental Repair in lockstep
// with fullRescanRepair over random streams that interleave Admit,
// Seed, Grow, ResetDeferred, SetMaxDeferred overflow, random repair
// cadences, and repairs cancelled part-way through a pass, and asserts
// every decision, admitted slice, EdgeList and DeferredEdges agree.
func TestRepairMatchesFullRescan(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			n := 24 + rng.Intn(72)
			threshold := []int{0, -1, 2}[trial%3]
			got, want := New(n, threshold), New(n, threshold)
			cadence := 1 + rng.Intn(300)
			since, repairs := 0, 0
			for step := 0; step < 3000; step++ {
				switch r := rng.Intn(1000); {
				case r < 8:
					u, v := int32(rng.Intn(want.Vertices())), int32(rng.Intn(want.Vertices()))
					if seedable(want, u, v) {
						got.Seed(u, v)
						want.Seed(u, v)
					}
				case r < 10:
					size := want.Vertices() + 1 + rng.Intn(24)
					got.Grow(size)
					want.Grow(size)
				case r < 12:
					got.ResetDeferred()
					want.ResetDeferred()
				case r < 16:
					// Mostly unbounded; sometimes a cap at or below the
					// current queue, so new rejections overflow.
					limit := 0
					if rng.Intn(2) == 0 {
						limit = rng.Intn(want.DeferredCount() + 2)
					}
					got.SetMaxDeferred(limit)
					want.SetMaxDeferred(limit)
				default:
					span := want.Vertices() + 2 // a few out-of-range ids
					u, v := int32(rng.Intn(span)), int32(rng.Intn(span))
					gotOK, gotWhy := got.Admit(u, v)
					wantOK, wantWhy := want.Admit(u, v)
					if gotOK != wantOK || gotWhy != wantWhy {
						t.Fatalf("step %d: Admit(%d,%d) = (%t, %s), reference (%t, %s)",
							step, u, v, gotOK, gotWhy, wantOK, wantWhy)
					}
				}
				if since++; since < cadence {
					continue
				}
				since, cadence = 0, 1+rng.Intn(300)
				repairs++
				// One repair in three is cancelled at a random Err call;
				// the next repair then completes the fixpoint.
				var gotCtx, wantCtx context.Context = context.Background(), context.Background()
				if rng.Intn(3) == 0 {
					k := rng.Intn(12)
					gotCtx, wantCtx = &countdownCtx{context.Background(), k}, &countdownCtx{context.Background(), k}
				}
				gotAdm, gotErr := got.RepairContext(gotCtx)
				wantAdm, wantErr := fullRescanRepair(want, wantCtx)
				if gotErr != wantErr || !slices.Equal(gotAdm, wantAdm) {
					t.Fatalf("repair %d: admitted %v (err %v), reference %v (err %v)",
						repairs, gotAdm, gotErr, wantAdm, wantErr)
				}
				sameState(t, got, want, fmt.Sprintf("repair %d", repairs))
			}
			gotAdm, _ := got.RepairContext(context.Background())
			wantAdm, _ := fullRescanRepair(want, context.Background())
			if !slices.Equal(gotAdm, wantAdm) {
				t.Fatalf("final repair: admitted %v, reference %v", gotAdm, wantAdm)
			}
			sameState(t, got, want, "final repair")
			if got.retests >= want.retests {
				t.Errorf("incremental repair ran %d separator checks, full rescan %d", got.retests, want.retests)
			}
		})
	}
}

// sameState asserts the two maintainers hold the same subgraph and the
// same deferred queue in the same order.
func sameState(t *testing.T, got, want *Maintainer, when string) {
	t.Helper()
	if g, w := got.EdgeList(), want.EdgeList(); !slices.Equal(g, w) {
		t.Fatalf("%s: EdgeList differs: %d edges, reference %d", when, len(g), len(w))
	}
	if g, w := got.DeferredEdges(), want.DeferredEdges(); !slices.Equal(g, w) {
		t.Fatalf("%s: DeferredEdges differs: %v, reference %v", when, g, w)
	}
}

// TestRepairSkipsUnchangedQueue pins the cost model: a Repair with no
// admission since the previous one runs no separator check, even after
// new deferrals, and one admission retests only the queued edges at its
// endpoints.
func TestRepairSkipsUnchangedQueue(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	m := New(n, 0)
	for i := 0; i < 4000; i++ {
		m.Admit(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	m.Repair()
	if m.DeferredCount() < 100 {
		t.Fatalf("only %d deferred edges; the test needs a long queue", m.DeferredCount())
	}
	before := m.retests
	if got := m.Repair(); len(got) != 0 {
		t.Fatalf("second repair admitted %v", got)
	}
	if m.retests != before {
		t.Fatalf("second repair ran %d separator checks, want 0", m.retests-before)
	}

	// New rejections only: the queue grows, the graph does not.
	queued := m.DeferredCount()
	for i := 0; i < 400; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v && !m.HasEdge(u, v) && m.find(u) == m.find(v) && !seedable(m, u, v) {
			m.Admit(u, v)
		}
	}
	if m.DeferredCount() == queued {
		t.Fatal("no new deferrals")
	}
	m.Repair()
	if m.retests != before {
		t.Fatalf("repair after deferrals only ran %d separator checks, want 0", m.retests-before)
	}

	// One bridge to a fresh vertex: only queued edges at its old
	// endpoint are retested.
	m.Grow(n + 1)
	var u int32
	for len(m.adj[u]) == 0 {
		u++
	}
	if ok, _ := m.Admit(u, n); !ok {
		t.Fatal("bridge to a fresh vertex rejected")
	}
	at := 0
	for _, e := range m.deferred {
		if e.U == u || e.V == u {
			at++
		}
	}
	before = m.retests
	m.Repair()
	if m.retests-before != at {
		t.Fatalf("repair after one bridge ran %d separator checks, want %d (queued edges at %d)", m.retests-before, at, u)
	}
}

// TestRepairAfterCancelRetestsSkipped cancels a repair during its first
// pass, after admissions made every queued edge addable: the slot the
// cancelled pass left untested must still be retested by the next
// Repair.
func TestRepairAfterCancelRetestsSkipped(t *testing.T) {
	const paths = 300
	got, want := New(4*paths, 0), New(4*paths, 0)
	for _, m := range []*Maintainer{got, want} {
		// Path a-b-c-d per block: {a, d} would close a chordless C4,
		// and the chord {a, c} later makes it addable.
		for i := int32(0); i < paths; i++ {
			a := 4 * i
			m.Admit(a, a+1)
			m.Admit(a+1, a+2)
			m.Admit(a+2, a+3)
			if _, why := m.Admit(a, a+3); why != ReasonDeferred {
				t.Fatalf("{%d,%d}: %s, want deferred", a, a+3, why)
			}
		}
		for i := int32(0); i < paths; i++ {
			if ok, _ := m.Admit(4*i, 4*i+2); !ok {
				t.Fatalf("chord {%d,%d} rejected", 4*i, 4*i+2)
			}
		}
	}
	// Under a cancelled context the pass leaves its 256th slot
	// untested and returns at the pass end.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gotAdm, gotErr := got.RepairContext(ctx)
	wantAdm, wantErr := fullRescanRepair(want, ctx)
	if gotErr == nil || gotErr != wantErr || !slices.Equal(gotAdm, wantAdm) || len(gotAdm) != paths-1 {
		t.Fatalf("cancelled repair admitted %d (err %v), reference %d (err %v), want %d",
			len(gotAdm), gotErr, len(wantAdm), wantErr, paths-1)
	}
	gotAdm, _ = got.RepairContext(context.Background())
	wantAdm, _ = fullRescanRepair(want, context.Background())
	if !slices.Equal(gotAdm, wantAdm) || len(gotAdm) != 1 {
		t.Fatalf("completing repair admitted %v, reference %v, want the one skipped slot", gotAdm, wantAdm)
	}
	sameState(t, got, want, "after the completing repair")
}

// TestSeedInvalidatesHubCache seeds an edge at a hub whose neighborhood
// a rejected check just cached: the next check against the hub must see
// the seeded neighbor, or it rejects an addable edge that Repair then
// never retests.
func TestSeedInvalidatesHubCache(t *testing.T) {
	m := New(11, 2)
	for _, e := range [][2]int32{{0, 1}, {1, 7}, {7, 2}, {0, 3}, {0, 4}} {
		if ok, _ := m.Admit(e[0], e[1]); !ok {
			t.Fatalf("bridge {%d,%d} rejected", e[0], e[1])
		}
	}
	// {0, 2} closes a chordless C4; the check caches N(0).
	if _, why := m.Admit(0, 2); why != ReasonDeferred {
		t.Fatalf("{0,2}: %s, want deferred", why)
	}
	m.Seed(9, 10)
	m.Seed(0, 9)
	// N(0) ∩ N(10) = {9} separates 0 from 10: a triangle, addable.
	if ok, why := m.Admit(0, 10); !ok {
		t.Fatalf("{0,10}: %s, want admitted", why)
	}
}
