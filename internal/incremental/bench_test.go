package incremental_test

import (
	"math/rand"
	"testing"

	"chordal/internal/incremental"
	"chordal/internal/rmat"
)

// BenchmarkRepairCadence streams a shuffled rmat-er:14 graph (edge
// factor 4) through a Maintainer with a Repair every 64 pushes — the
// stream cadence whose cost is dominated by retesting the deferred
// queue. It reports pushes per second, repairs included.
func BenchmarkRepairCadence(b *testing.B) {
	p := rmat.PresetParams(rmat.ER, 14, 1)
	p.EdgeFactor = 4
	g, err := rmat.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	us, vs := g.EdgeList()
	rand.New(rand.NewSource(1)).Shuffle(len(us), func(i, j int) {
		us[i], us[j] = us[j], us[i]
		vs[i], vs[j] = vs[j], vs[i]
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := incremental.New(g.NumVertices(), 0)
		for k := range us {
			m.Admit(us[k], vs[k])
			if k%64 == 63 {
				m.Repair()
			}
		}
		m.Repair()
	}
	b.ReportMetric(float64(b.N*len(us))/b.Elapsed().Seconds(), "pushes/s")
}
