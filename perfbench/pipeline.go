package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"chordal"
	"chordal/internal/tune"
	"chordal/internal/verify"
)

// pipelineItem is one row of the pipeline workload's fixed matrix.
type pipelineItem struct {
	name string
	spec chordal.Spec
}

// pipelineItems is the matrix: large inputs where the source, core,
// shard, extio, verify, quality and graph-write layers each do real
// work. rmat-g:17 (skewed) carries the engine comparisons — default
// width, one worker (the speed-up base), the serial baseline, BFS
// relabelling with a .bin output, and the sharded and out-of-core
// engines, which must agree byte for byte. gnm (uniform), rmat-b:15
// (heavy hubs) and ktree:20000:24 (every edge survives) vary the input
// shape. ktree:1500:24 runs sharded at a size that finishes: sharded
// ktree:20000:24 ran for more than eight minutes.
func pipelineItems(seed int64, bin, out string) []pipelineItem {
	rg := fmt.Sprintf("rmat-g:17:%d", seed)
	v := func(s chordal.Spec) chordal.Spec { s.Verify = true; return s }
	return []pipelineItem{
		{"rmat-g17-parallel", v(chordal.Spec{Source: rg})},
		{"rmat-g17-w1", v(chordal.Spec{Source: rg, EngineConfig: chordal.EngineConfig{Workers: 1}})},
		{"rmat-g17-serial", v(chordal.Spec{Source: rg, Engine: chordal.EngineSerial})},
		{"rmat-g17-bfs-bin", v(chordal.Spec{Source: rg, Relabel: "bfs", Output: out})},
		{"rmat-g17-sharded4", v(chordal.Spec{Source: rg, Engine: chordal.EngineSharded, EngineConfig: chordal.EngineConfig{Shards: 4}})},
		{"rmat-g17-external4", v(chordal.Spec{Source: bin, Engine: chordal.EngineExternal, EngineConfig: chordal.EngineConfig{Shards: 4}})},
		{"gnm-parallel", v(chordal.Spec{Source: fmt.Sprintf("gnm:131072:1048576:%d", seed)})},
		{"rmat-b15-parallel", v(chordal.Spec{Source: fmt.Sprintf("rmat-b:15:%d", seed)})},
		{"ktree20000-parallel", v(chordal.Spec{Source: fmt.Sprintf("ktree:20000:24:%d", seed)})},
		{"ktree1500-sharded4", v(chordal.Spec{Source: fmt.Sprintf("ktree:1500:24:%d", seed), Engine: chordal.EngineSharded, EngineConfig: chordal.EngineConfig{Shards: 4}})},
	}
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// timeSetup runs fn setupReps times, records setup_s as the median and
// returns the last repetition's error.
func (b *bench) timeSetup(fn func(rep int) error) error {
	var ts []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			tune.Current() // the process's first calibration
		} else {
			tune.Calibrate()
		}
		if err := fn(rep); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	b.detail["setup_s"] = ts
	if b.tr == nil {
		b.setMedian("setup_s", "s", ts)
	}
	return nil
}

// pipelineChecker holds what the pipeline's checks compare against.
type pipelineChecker struct {
	b       *bench
	rmatG   *chordal.Graph    // the generated rmat-g:17 input the .bin holds
	hashes  map[string]string // first hash seen per item
	iters   map[string][]int  // iteration count per run, a spread only
	pending map[string]string // hashes of this pass, for cross-item checks
}

// checkItem verifies one item's output: the subgraph is chordal and a
// subgraph of its input, its edge hash repeats across passes, and the
// .bin output reloads to the same edges.
func (c *pipelineChecker) checkItem(it pipelineItem, res *chordal.PipelineResult) {
	b := c.b
	sub := res.Subgraph
	in := res.Input
	if in == nil {
		in = c.rmatG // the out-of-core path never materializes its input
	} else {
		b.prov.addInput(it.spec.Source, in)
	}
	if sub == nil {
		b.check(false, "%s: no subgraph", it.name)
		return
	}
	b.prov.addTuning(res.Tuning)
	b.check(res.Verified && res.ChordalOK && verify.IsChordal(sub), "%s: subgraph is not chordal", it.name)
	b.check(isSubgraph(sub, in), "%s: output is not a subgraph of its input", it.name)
	h := edgeHash(sub)
	if first, ok := c.hashes[it.name]; ok {
		b.check(h == first, "%s: edge hash %s differs from the first pass's %s", it.name, h, first)
	} else {
		c.hashes[it.name] = h
	}
	c.pending[it.name] = h
	if r := res.Extraction; r != nil {
		c.iters[it.name] = append(c.iters[it.name], len(r.Iterations))
	}
	if it.spec.Output != "" {
		g, err := chordal.LoadGraph(it.spec.Output)
		b.check(err == nil && edgeHash(g) == h, "%s: .bin output does not reload to the subgraph (%v)", it.name, err)
	}
}

// endPass runs the cross-item checks of one pass: the parallel engine's
// edge set does not depend on the worker count, and the out-of-core
// engine matches the sharded engine byte for byte.
func (c *pipelineChecker) endPass() {
	pairs := [][2]string{
		{"rmat-g17-parallel", "rmat-g17-w1"},
		{"rmat-g17-sharded4", "rmat-g17-external4"},
	}
	for _, p := range pairs {
		a, okA := c.pending[p[0]]
		z, okZ := c.pending[p[1]]
		if okA && okZ {
			c.b.check(a == z, "%s edge hash %s != %s edge hash %s", p[0], a, p[1], z)
		}
	}
	c.pending = map[string]string{}
}

func runPipeline(b *bench) error {
	ctx := context.Background()
	bin := filepath.Join(b.dir, "rmat-g17.bin")
	out := filepath.Join(b.dir, "out.bin")
	c := &pipelineChecker{b: b, hashes: map[string]string{}, iters: map[string][]int{}, pending: map[string]string{}}
	err := b.timeSetup(func(int) error {
		g, err := loadSource(fmt.Sprintf("rmat-g:17:%d", b.seed))
		if err != nil {
			return err
		}
		c.rmatG = g
		return chordal.SaveGraph(bin, g)
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	items := pipelineItems(b.seed, bin, out)
	if b.tr != nil {
		return tracePipeline(ctx, b, c, items)
	}

	heap := startHeapSampler()
	start := time.Now()
	var itemTimes, passTimes []float64
	var edges int64
	for {
		pass := 0.0
		for _, it := range items {
			t0 := time.Now()
			res, err := chordal.Runner{}.Run(ctx, it.spec)
			d := time.Since(t0).Seconds()
			if err != nil {
				b.fail("%s: %v", it.name, err)
				continue
			}
			pass += d
			itemTimes = append(itemTimes, d)
			edges += res.InputStats.Edges
			c.checkItem(it, res)
		}
		c.endPass()
		passTimes = append(passTimes, pass)
		if time.Since(start)+time.Duration(pass*float64(time.Second)) > b.seconds {
			break
		}
	}
	b.set("peak_heap_mb", "MiB", heap.peakMiB())
	busy := sum(itemTimes)
	b.set("medges_per_s", "Medges/s", float64(edges)/busy/1e6)
	b.set("ops_per_s", "1/s", float64(len(itemTimes))/busy)
	b.samples["medges_per_s"] = len(itemTimes)
	b.samples["ops_per_s"] = len(itemTimes)
	b.setMedian("p50_s", "s", passTimes)
	b.detail["passSeconds"] = passTimes
	b.detail["itemSeconds"] = itemTimes
	b.detail["iterations"] = c.iters
	b.detail["edgeHashes"] = c.hashes
	return nil
}

// tracePipeline runs each item twice per pass — once through
// Runner.Run untimed by spans, once through the mirrored per-layer call
// sequence in spans — and reports per-layer self times, each item's
// span coverage of its Runner.Run wall time, and the tracing overhead.
func tracePipeline(ctx context.Context, b *bench, c *pipelineChecker, items []pipelineItem) error {
	tr := b.tr
	start := time.Now()
	wall := map[string][]float64{}
	covered := map[string][]float64{}
	lw := &layerTally{}
	var untimed, overhead float64
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for _, it := range items {
			t0 := time.Now()
			res, err := chordal.Runner{}.Run(ctx, it.spec)
			w := time.Since(t0)
			if err != nil {
				b.fail("%s: %v", it.name, err)
				continue
			}
			c.checkItem(it, res)
			id := fmt.Sprintf("%s#%d", it.name, pass)
			root := tr.begin(id, "pipeline.item", -1)
			m, err := mirror(ctx, tr, id, root, it.spec, nil, true)
			traced := tr.end(root)
			if err != nil {
				b.fail("%s traced: %v", it.name, err)
				continue
			}
			b.check(edgeHash(m.sub) == c.pending[it.name],
				"%s: traced call sequence's edge hash differs from Runner.Run's", it.name)
			lw.add(it.name, m)
			spans := traced - tr.selfOf(root)
			wall[it.name] = append(wall[it.name], w.Seconds())
			covered[it.name] = append(covered[it.name], spans.Seconds())
			untimed += (w - spans).Seconds()
			overhead += (traced - w).Seconds()
		}
		c.endPass()
		if time.Since(start)+time.Since(passStart) > b.seconds {
			break
		}
	}
	lw.report(b)
	for _, it := range items {
		if w := sum(wall[it.name]); w > 0 {
			b.set("coverage."+it.name, "ratio", sum(covered[it.name])/w)
		}
	}
	b.set("pipeline.untimed_s", "s", untimed)
	b.set("trace.overhead_s", "s", overhead)
	b.detail["iterations"] = c.iters
	b.detail["runnerWallSeconds"] = wall
	b.detail["spanSeconds"] = covered
	return nil
}
