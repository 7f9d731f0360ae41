package chordal

import (
	"context"
	"fmt"

	"chordal/internal/extio"
	"chordal/internal/shard"
)

// defaultResidentShards is the external engine's residency bound when
// EngineConfig.ResidentShards is unset.
const defaultResidentShards = 2

// externalEngine is the out-of-core strategy: the shard driver runs
// against a binary-CSR file through internal/extio — adjacency decoded
// per vertex-range shard on demand, at most ResidentShards decoded
// shards alive at once — instead of against a resident graph.
// Registered seventh; selected by Spec{Engine: "external"}.
//
// Identity: the engine reuses the canonical key's fixed shards= and
// stitchonly= tokens (the same semantics-affecting knobs as the sharded
// engine, which it is byte-identical to); ResidentShards is a pure
// residency/speed knob and stays out of the key.
type externalEngine struct{}

// Name implements Engine.
func (externalEngine) Name() string { return EngineExternal }

// Extract implements Engine for callers that already hold the graph in
// memory (Runner-injected inputs, generated sources, uploads): the
// shard driver reads the graph directly, under the engine's residency
// bound. True out-of-core runs enter through ExtractSource instead.
func (externalEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	if g == nil {
		return nil, fmt.Errorf("chordal: external engine: nil graph")
	}
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	tun := resolveTuning(&opts, g)
	resident := residentShards(cfg)
	r, err := shard.ExtractContext(ctx, g, shardOptions(cfg, opts, tun, resident))
	if err != nil {
		return nil, err
	}
	return externalResult(r, g.NumEdges(), tun, resident), nil
}

// ExtractSource implements SourceEngine: extract straight from the
// binary-CSR file at path without ever materializing the whole graph.
func (externalEngine) ExtractSource(ctx context.Context, path string, cfg EngineConfig) (*EngineResult, error) {
	m, err := extio.Open(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()

	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	// The degree summary that drives tuning (hybrid threshold, width
	// model) comes from one bounded-memory pass over the offsets array.
	stats, err := m.Stats()
	if err != nil {
		return nil, err
	}
	tun := resolveTuningStats(&opts, stats.MaxDegree, stats.Vertices, stats.Edges)
	resident := residentShards(cfg)
	startRead := m.BytesRead()
	r, err := shard.Run(ctx, m, shardOptions(cfg, opts, tun, resident))
	if err != nil {
		return nil, err
	}
	res := externalResult(r, stats.Edges, tun, resident)
	res.External.Mapped = m.Mapped()
	if m.Mapped() {
		res.External.BytesMapped = m.SizeBytes()
	}
	res.External.BytesRead = m.BytesRead() - startRead
	inputStats := Stats(stats)
	res.InputStats = &inputStats
	return res, nil
}

// residentShards is the residency bound of an external run.
func residentShards(cfg EngineConfig) int {
	if cfg.ResidentShards > 0 {
		return cfg.ResidentShards
	}
	return defaultResidentShards
}

// externalResult maps a shard driver result onto the external engine's
// EngineResult; the caller adds the file IO counters when there is a
// file.
func externalResult(r *shard.Result, inputEdges int64, tun Tuning, resident int) *EngineResult {
	return &EngineResult{
		Subgraph: r.Subgraph,
		Shard:    newShardSummary(r, inputEdges),
		External: &ExternalSummary{
			PeakResidentBytes: r.PeakResident,
			ResidentShards:    resident,
			DecodeMillis:      durationMillis(r.Decode),
			KernelMillis:      durationMillis(r.Kernel),
			OverlapMillis:     durationMillis(r.Overlap),
		},
		Tuning: &tun,
	}
}
