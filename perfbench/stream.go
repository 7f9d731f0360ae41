package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"chordal"
	"chordal/internal/verify"
)

// streamSession is one session shape of the stream workload.
type streamSession struct {
	name        string
	source      string
	repairEvery int
}

// streamSessions: an rmat-er:16-class and a gse5140-crt session push
// with repairs only at Close, an rmat-er:14-class session repairs every
// 64 pushes — the cadence whose cost the push rate shows. The repair
// session uses edge factor 4: at the default 8 its repairs, whose cost
// grows with the deferred queue, take 8.5 s a session on a 2-CPU host,
// which leaves too few sessions in a run for a steady Close median.
func streamSessions(seed int64) []streamSession {
	return []streamSession{
		{"rmat-er16", fmt.Sprintf("rmat-er:16:%d", seed), 0},
		{"rmat-er14-repair64", fmt.Sprintf("rmat-er:14:%d:4", seed), 64},
		{"gse5140-crt", fmt.Sprintf("gse5140-crt:8:%d", seed), 0},
	}
}

// streamInput is a session's generated graph and its edge list.
type streamInput struct {
	g      *chordal.Graph
	us, vs []int32
	hash   string // edge hash of g
	ref    string // edge hash of the batch run on g, computed once
}

func runStream(b *bench) error {
	ctx := context.Background()
	sessions := streamSessions(b.seed)
	inputs := make([]*streamInput, len(sessions))
	err := b.timeSetup(func(int) error {
		for i, s := range sessions {
			g, err := loadSource(s.source)
			if err != nil {
				return err
			}
			us, vs := g.EdgeList()
			inputs[i] = &streamInput{g: g, us: us, vs: vs}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	for i, s := range sessions {
		b.prov.addInput(s.source, inputs[i].g)
	}

	var heap *heapSampler
	if b.tr == nil {
		heap = startHeapSampler()
	}
	start := time.Now()
	var plain, repair, closes, passCloses []float64
	var stats []chordal.StreamStats
	for pass := 0; ; pass++ {
		passStart := time.Now()
		passClose := 0.0
		for i, s := range sessions {
			in := inputs[i]
			order := shuffled(len(in.us), b.seed, pass, i)
			id := fmt.Sprintf("%s#%d", s.name, pass)
			rates, cl, st, res, err := b.pushSession(ctx, id, s, in, order)
			if err != nil {
				b.fail("%s: %v", id, err)
				continue
			}
			stats = append(stats, st)
			if s.repairEvery > 0 {
				repair = append(repair, rates...)
			} else {
				for _, r := range rates {
					plain = append(plain, r/1e6)
				}
			}
			closes = append(closes, cl.Seconds())
			passClose += cl.Seconds()
			b.checkStream(ctx, id, in, res)
		}
		passCloses = append(passCloses, passClose)
		if time.Since(start)+time.Since(passStart) > b.seconds {
			break
		}
	}
	b.detail["sessionStats"] = stats
	b.detail["closeSeconds"] = closes
	if b.tr != nil {
		var t layerTally
		t.report(b)
		var pushed, admitted, deferred, repairs, repaired float64
		for _, st := range stats {
			pushed += float64(st.Pushed)
			admitted += float64(st.Admitted)
			deferred += float64(st.Deferred)
			repairs += float64(st.Repairs)
			repaired += float64(st.Repaired)
		}
		self := b.tr.selfTimes()
		b.set("incremental.push_s", "s", self["incremental.push"].Seconds())
		b.set("incremental.repair_s", "s", self["incremental.repair"].Seconds())
		b.set("incremental.admit_ratio", "ratio", admitted/max(pushed, 1))
		b.set("incremental.deferred", "count", deferred)
		b.set("incremental.repairs", "count", repairs)
		b.set("incremental.repaired", "count", repaired)
		b.set("stream.close_s", "s", self["stream.close"].Seconds())
		return nil
	}
	b.set("peak_heap_mb", "MiB", heap.peakMiB())
	b.setMedian("medges_per_s", "Medges/s", plain)
	b.setMedian("ops_per_s", "1/s", repair)
	// The three sessions' Close times differ several-fold, so the median
	// of the pooled closes would sit at the edge between two of them;
	// the pass's summed Close time is one sample of the same work each
	// pass.
	b.setMedian("p50_s", "s", passCloses)
	return nil
}

// shuffled is the seeded push order of one session of one pass.
func shuffled(n int, seed int64, pass, session int) []int32 {
	r := rand.New(rand.NewPCG(uint64(seed), uint64(pass)<<8|uint64(session)))
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// pushSession opens a session, pushes every edge in order and closes
// it. It returns the push rate of each block of pushes — the run
// reports the median block, which a passing stall on a shared host
// moves less than the total — and the Close time. The traced run keeps
// the same repair cadence but drives it with explicit Repair calls, so
// push and repair time land in separate spans.
func (b *bench) pushSession(ctx context.Context, id string, s streamSession, in *streamInput, order []int32) (rates []float64, cl time.Duration, st chordal.StreamStats, res *chordal.StreamResult, err error) {
	cfg := chordal.StreamConfig{Vertices: in.g.NumVertices(), RepairEvery: s.repairEvery}
	block := 4096
	if s.repairEvery > 0 {
		block = 16 * s.repairEvery
	}
	tr := b.tr
	if tr != nil && s.repairEvery > 0 {
		cfg.RepairEvery, block = 0, s.repairEvery
	}
	stream, err := chordal.OpenStream(ctx, chordal.Spec{Mode: chordal.ModeStream, Verify: true}, cfg)
	if err != nil {
		return nil, 0, st, nil, err
	}
	root := tr.begin(id, "stream.session", -1)
	for lo := 0; lo < len(order); lo += block {
		part := order[lo:min(lo+block, len(order))]
		sp := tr.begin(id, "incremental.push", root)
		t0 := time.Now()
		for _, e := range part {
			if _, err := stream.Push(ctx, in.us[e], in.vs[e]); err != nil {
				return nil, 0, st, nil, err
			}
		}
		rates = append(rates, float64(len(part))/time.Since(t0).Seconds())
		tr.end(sp)
		if tr != nil && s.repairEvery > 0 {
			sp := tr.begin(id, "incremental.repair", root)
			_, err := stream.Repair(ctx)
			tr.end(sp)
			if err != nil {
				return nil, 0, st, nil, err
			}
		}
	}
	st = stream.Stats()
	sp := tr.begin(id, "stream.close", root)
	t1 := time.Now()
	res, err = stream.Close(ctx)
	cl = time.Since(t1)
	tr.end(sp)
	tr.end(root)
	return rates, cl, st, res, err
}

// checkStream verifies a Close: the accumulated input is the pushed
// graph, and the result is chordal, a subgraph of it, and identical to
// the batch run on the same input.
func (b *bench) checkStream(ctx context.Context, id string, in *streamInput, res *chordal.StreamResult) {
	if in.ref == "" {
		m, err := mirror(ctx, nil, id, -1, chordal.Spec{}, in.g, false)
		if err != nil {
			b.fail("%s: batch reference: %v", id, err)
			return
		}
		in.ref = edgeHash(m.sub)
		in.hash = edgeHash(in.g)
	}
	b.prov.addTuning(res.Report.Tuning)
	v := res.Report.Verify
	b.check(v != nil && v.Chordal && verify.IsChordal(res.Subgraph), "%s: Close result is not chordal", id)
	b.check(isSubgraph(res.Subgraph, in.g), "%s: Close result is not a subgraph of the pushed graph", id)
	b.check(edgeHash(res.Input) == in.hash, "%s: Close's accumulated input differs from the pushed graph", id)
	b.check(edgeHash(res.Subgraph) == in.ref, "%s: Close result differs from the batch run on the same input", id)
}
