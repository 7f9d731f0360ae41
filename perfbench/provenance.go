package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"chordal"
	"chordal/internal/tune"
)

// provenance stamps a run with what it ran on. The tuning is recorded,
// not pinned: CHORDAL_TUNE* are left as the user's environment has
// them, so the benchmark measures the configuration users run.
type provenance struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Seed       int64  `json:"seed"`
	// TuneEnv echoes any CHORDAL_TUNE* variables that were set.
	TuneEnv []string `json:"tuneEnv,omitempty"`
	// Profile is the process's startup calibration (internal/tune).
	Profile tune.Profile `json:"profile"`
	// Tunings lists each distinct resolved kernel tuning a run used.
	Tunings []chordal.Tuning `json:"tunings"`
	// L3Bytes is the last-level cache size the OS reports (0 when it
	// reports none); inputs list their CSR bytes beside it.
	L3Bytes int64       `json:"l3Bytes"`
	Inputs  []inputStat `json:"inputs"`

	mu sync.Mutex
}

// inputStat sizes one input. CSRBytes is computed from the graph's
// arrays (offsets + adjacency), not measured traffic: it states how big
// the working set is next to the L3, and no bandwidth claim is made.
type inputStat struct {
	Name     string  `json:"name"`
	Vertices int     `json:"vertices"`
	Edges    int64   `json:"edges"`
	CSRBytes int64   `json:"csrBytesComputed"`
	OfL3     float64 `json:"csrOverL3,omitempty"`
}

func newProvenance(seed int64) *provenance {
	p := &provenance{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		L3Bytes:    l3Bytes(),
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "CHORDAL_TUNE") {
			p.TuneEnv = append(p.TuneEnv, kv)
		}
	}
	return p
}

// l3Bytes reads the largest cache size sysfs reports for CPU 0.
func l3Bytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// addInput records one input's size once per name.
func (p *provenance) addInput(name string, g *chordal.Graph) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, in := range p.Inputs {
		if in.Name == name {
			return
		}
	}
	in := inputStat{Name: name, Vertices: g.NumVertices(), Edges: g.NumEdges(), CSRBytes: g.SizeBytes()}
	if p.L3Bytes > 0 {
		in.OfL3 = float64(in.CSRBytes) / float64(p.L3Bytes)
	}
	p.Inputs = append(p.Inputs, in)
}

// addTuning records a resolved tuning if it is new.
func (p *provenance) addTuning(t *chordal.Tuning) {
	if t == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, have := range p.Tunings {
		if have == *t {
			return
		}
	}
	p.Tunings = append(p.Tunings, *t)
}

// maxWorkers is the widest resolved worker count any run used.
func (p *provenance) maxWorkers() int {
	w := 0
	for _, t := range p.Tunings {
		w = max(w, t.Workers)
	}
	return w
}

// heapSampler tracks the peak Go heap from runtime/metrics: the largest
// heap the garbage collector found live at the end of any cycle during
// the run. Unlike MemStats.Sys, which only grows over a process's life,
// it falls when the program frees memory; unlike the bytes of all heap
// objects, it does not swing with how far the collector let garbage
// accumulate before a sample.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
