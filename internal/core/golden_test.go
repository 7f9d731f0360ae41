package core

import (
	"reflect"
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/graph"
	"chordal/internal/rmat"
)

// TestGoldenCounts pins exact chordal edge and iteration counts for
// fixed-seed inputs under the dataflow schedule. The iteration counts
// are pinned at one worker: with more, whether a test chains through a
// parent finalized in the same iteration depends on timing, so the
// count does too. The edge set does not, and the test asserts it is
// byte-identical for 1 to 4 workers on every row. Any change to the
// generators, the queue discipline, or the subset test shows up here
// first; update the constants only after confirming the new values are
// correct (chordality + maximality audits).
func TestGoldenCounts(t *testing.T) {
	type row struct {
		name      string
		edges     int64
		chordal   int
		iterCount int
	}
	var got []row
	extract := func(name string, g *graph.Graph) {
		res, err := Extract(g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row{name, g.NumEdges(), res.NumChordalEdges(), len(res.Iterations)})
		for w := 2; w <= 4; w++ {
			rw, err := Extract(g, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rw.Edges, res.Edges) {
				t.Errorf("%s: workers=%d edge set (%d) differs from workers=1 (%d)",
					name, w, len(rw.Edges), len(res.Edges))
			}
		}
	}

	for _, preset := range []rmat.Preset{rmat.ER, rmat.G, rmat.B} {
		g, err := rmat.Generate(rmat.PresetParams(preset, 10, 20120910))
		if err != nil {
			t.Fatal(err)
		}
		extract(preset.String(), g)
	}
	bg, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 64, 20120910))
	if err != nil {
		t.Fatal(err)
	}
	extract("GSE5140(UNT)/64", bg)

	want := []row{
		// Pinned after R-MAT sampling moved from per-worker to
		// fixed-chunk PRNG streams (the sampled graph is now independent
		// of worker count and machine, the invariant the service's
		// generated-input cache relies on); the new instances were
		// re-audited: extraction output chordal, byte-identical across
		// worker counts, usual few §5 repairable edges.
		{"RMAT-ER", 8116, 1021, 7},
		{"RMAT-G", 7579, 1259, 8},
		{"RMAT-B", 6745, 1618, 9},
		// Pinned after the biogen generator moved its module and hub
		// sampling onto per-module PRNG streams (parallel generation);
		// the new instance was re-audited: extraction output chordal,
		// deterministic across runs, usual few §5 repairable edges.
		{"GSE5140(UNT)/64", 9903, 1600, 12},
	}
	if len(got) != len(want) {
		t.Fatalf("row count %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
