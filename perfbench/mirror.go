package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"chordal"
	"chordal/internal/analysis"
	"chordal/internal/graph"
	"chordal/internal/quality"
	"chordal/internal/verify"
)

// maxAuditEdges mirrors the bound Runner.Run applies to the maximality
// audit (spec.go). The traced pipeline asserts that the mirrored
// sequence yields Runner.Run's edge set, and the coverage check shows
// any stage that drifts out of it as untimed.
const maxAuditEdges = 200000

// mirrored is what one mirrored run produced.
type mirrored struct {
	inputEdges int64
	loaded     bool // the source layer produced the input
	sub        *chordal.Graph
	er         *chordal.EngineResult
	verified   bool
	chordalOK  bool
	quality    *quality.Metrics
	wroteBytes int64
}

// extractSpan names the span of an engine's Extract by the layer that
// does the work.
func extractSpan(engine string) string {
	switch engine {
	case chordal.EngineParallel:
		return "core.extract"
	case chordal.EngineSharded:
		return "shard.extract"
	case chordal.EngineExternal:
		return "extio.extract"
	}
	return "engine." + engine
}

// mirror replays Runner.Run's stage order (spec.go) by calling each
// layer's public function inside a span: chordal.ParseSource and
// Source.LoadWorkers, Graph.RelabelWorkers, graph.ComputeStats,
// LookupEngine(..).Extract, verify.IsChordal and AuditMaximality,
// quality.Compute and graph.SaveFile. input, when non-nil, stands in for
// the source as a Runner-injected graph does. withQuality=false skips
// quality.Compute, for reference runs whose only use is the edge set.
func mirror(ctx context.Context, tr *tracer, id string, parent int, s chordal.Spec, input *chordal.Graph, withQuality bool) (*mirrored, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	m := &mirrored{}
	g := input
	eng, ok := chordal.LookupEngine(s.Engine)
	if !ok {
		return nil, fmt.Errorf("unknown engine %q", s.Engine)
	}
	var srcPath string
	if se, isSrc := eng.(chordal.SourceEngine); g == nil && isSrc {
		src, err := chordal.ParseSource(s.Source)
		if err == nil && !src.Generated() && !src.ContentAddressed() &&
			strings.HasSuffix(strings.ToLower(src.Canonical()), ".bin") {
			srcPath = src.Canonical()
			sp := tr.begin(id, extractSpan(s.Engine), parent)
			m.er, err = se.ExtractSource(ctx, srcPath, s.EngineConfig)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	if g == nil && srcPath == "" {
		sp := tr.begin(id, "source.load", parent)
		src, err := chordal.ParseSource(s.Source)
		if err == nil {
			g, err = src.LoadWorkers(s.Workers)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		m.loaded = true
	}
	if g != nil && s.Relabel != chordal.RelabelNone.String() {
		sp := tr.begin(id, "graph.relabel", parent)
		switch s.Relabel {
		case chordal.RelabelBFS.String():
			g = g.RelabelWorkers(analysis.BFSOrder(g, 0), s.Workers)
		case chordal.RelabelDegree.String():
			g = g.RelabelWorkers(analysis.DegreeOrder(g), s.Workers)
		}
		tr.end(sp)
	}
	if g != nil {
		sp := tr.begin(id, "graph.stats", parent)
		m.inputEdges = graph.ComputeStats(g).Edges
		tr.end(sp)
	}
	if m.er == nil {
		sp := tr.begin(id, extractSpan(s.Engine), parent)
		m.er, err = eng.Extract(ctx, g, s.EngineConfig)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if m.er.InputStats != nil {
		m.inputEdges = m.er.InputStats.Edges
	}
	m.sub = m.er.Subgraph
	if s.Verify {
		m.verified = true
		if m.er.Shard != nil {
			m.chordalOK = m.er.Shard.Chordal // Runner.Run reuses the shard self-check
		} else {
			sp := tr.begin(id, "verify.chordal", parent)
			m.chordalOK = verify.IsChordal(m.sub)
			tr.end(sp)
		}
		if m.chordalOK && g != nil && g.NumEdges() <= maxAuditEdges {
			sp := tr.begin(id, "verify.audit", parent)
			verify.AuditMaximality(g, m.sub, 10)
			tr.end(sp)
		}
	}
	if withQuality && g != nil && (!m.verified || m.chordalOK) {
		sp := tr.begin(id, "quality.compute", parent)
		m.quality, _ = quality.Compute(g, m.sub, quality.DefaultLimits()) // skipped on error, as Runner.Run does
		tr.end(sp)
	}
	if s.Output != "" {
		sp := tr.begin(id, "graph.write", parent)
		err := graph.SaveFile(s.Output, m.sub)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(s.Output); err == nil {
			m.wroteBytes = fi.Size()
		}
	}
	return m, nil
}

// layerTally accumulates the per-layer counts of mirrored runs; busy
// times come from the span log.
type layerTally struct {
	loadedEdges           int64
	wroteBytes            int64
	tested, accepted      int64
	iterations            int
	borderTotal, admits   int64
	decode, kernel, over  float64
	readBytes, resident   int64
	qualityRuns, fillDone int
}

func (l *layerTally) add(item string, m *mirrored) {
	if m.loaded {
		l.loadedEdges += m.inputEdges
	}
	l.wroteBytes += m.wroteBytes
	if r := m.er.Extraction; r != nil {
		l.tested += r.TotalTested()
		l.accepted += r.TotalAccepted()
		if item == "rmat-g17-parallel" {
			l.iterations = len(r.Iterations)
		}
	}
	if sh := m.er.Shard; sh != nil {
		l.borderTotal += int64(sh.BorderTotal)
		l.admits += int64(sh.BorderAdmitted)
	}
	if x := m.er.External; x != nil {
		l.decode += x.DecodeMillis / 1000
		l.kernel += x.KernelMillis / 1000
		l.over += x.OverlapMillis / 1000
		l.readBytes += x.BytesRead
		l.resident = max(l.resident, x.PeakResidentBytes)
	}
	if m.quality != nil {
		l.qualityRuns++
		if m.quality.FillComputed {
			l.fillDone++
		}
	}
}

// report sets the per-layer metrics from the tally and the span log.
func (l *layerTally) report(b *bench) {
	self := b.tr.selfTimes()
	sec := func(name string) float64 { return self[name].Seconds() }
	ratio := func(a, z float64) float64 {
		if z == 0 {
			return 0
		}
		return a / z
	}
	const mib = 1 << 20
	b.set("source.busy_s", "s", sec("source.load"))
	b.set("source.medges_per_s", "Medges/s", ratio(float64(l.loadedEdges)/1e6, sec("source.load")))
	b.set("graph.relabel_s", "s", sec("graph.relabel"))
	b.set("graph.stats_s", "s", sec("graph.stats"))
	b.set("graph.write_s", "s", sec("graph.write"))
	b.set("graph.write_mb", "MiB", float64(l.wroteBytes)/mib)
	b.set("core.busy_s", "s", sec("core.extract"))
	b.set("core.iterations", "count", float64(l.iterations))
	b.set("core.edges_tested", "count", float64(l.tested))
	b.set("core.accept_ratio", "ratio", ratio(float64(l.accepted), float64(l.tested)))
	b.set("shard.busy_s", "s", sec("shard.extract"))
	b.set("shard.border_edges", "count", float64(l.borderTotal))
	b.set("shard.border_admit_ratio", "ratio", ratio(float64(l.admits), float64(l.borderTotal)))
	b.set("extio.busy_s", "s", sec("extio.extract"))
	b.set("extio.decode_s", "s", l.decode)
	b.set("extio.kernel_s", "s", l.kernel)
	b.set("extio.overlap_s", "s", l.over)
	b.set("extio.read_mb", "MiB", float64(l.readBytes)/mib)
	b.set("extio.peak_resident_mb", "MiB", float64(l.resident)/mib)
	b.set("verify.chordal_s", "s", sec("verify.chordal"))
	b.set("verify.audit_s", "s", sec("verify.audit"))
	b.set("quality.busy_s", "s", sec("quality.compute"))
	b.set("quality.fill_done_ratio", "ratio", ratio(float64(l.fillDone), float64(l.qualityRuns)))
	w1 := b.tr.itemSpan("rmat-g17-w1", "core.extract")
	wn := b.tr.itemSpan("rmat-g17-parallel", "core.extract")
	b.set("core.speedup", "ratio", ratio(w1.Seconds(), wn.Seconds()))
}
