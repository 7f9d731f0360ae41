// Command perfbench is the repository's end-to-end benchmark. One
// process drives one workload through the public entry points —
// chordal.Runner.Run (pipeline), the internal/service HTTP handler over
// loopback (service), and chordal.OpenStream (stream) — checks every
// output, and prints one JSON result line. With -trace 1 it instead runs
// the traced variant of the workload, which wraps the calls into each
// layer's public functions in spans and reports per-layer metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload pipeline --seed 1 --seconds 30 --trace 0
//	perfbench compare <parent-results-dir> <change-results-dir>
//
// Every run also writes its full record (provenance, per-item detail,
// spans when traced) under .bench_out/, which the compare mode reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"chordal/internal/tune"
)

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full per-run file written under .bench_out/.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance *provenance    `json:"provenance"`
	Result     result         `json:"result"`
	Failures   []string       `json:"failures,omitempty"`
	Detail     map[string]any `json:"detail"`
	Spans      []span         `json:"spans,omitempty"`
}

// bench is the state one workload run accumulates: the check tally,
// the metrics, the detail record and, when traced, the span log.
type bench struct {
	seed    int64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil when untraced
	dir     string  // run-scoped scratch directory inside the checkout

	attempted int
	failures  []string
	metrics   map[string]metric
	samples   map[string]int // sample count behind each reported median
	detail    map[string]any
	prov      *provenance
}

// check counts one verified output; a false ok is a failure and is
// reported, never dropped.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// fail counts one attempted operation that did not produce an output.
func (b *bench) fail(format string, args ...any) { b.check(false, format, args...) }

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{v, unit} }

// setMedian reports the median of xs and records its sample count.
func (b *bench) setMedian(name, unit string, xs []float64) {
	b.set(name, unit, median(xs))
	b.samples[name] = len(xs)
}

// okRatio is the share of attempted operations and checks that passed;
// it stands in for a fail ratio, which is 0 on a healthy run.
func (b *bench) okRatio() float64 {
	if b.attempted == 0 {
		return 0
	}
	return 1 - float64(len(b.failures))/float64(b.attempted)
}

var workloads = map[string]func(*bench) error{
	"pipeline": runPipeline,
	"service":  runService,
	"stream":   runStream,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "pipeline|service|stream")
	seed := flag.Int64("seed", 1, "input seed, put into every generator spec")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the per-run record")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seed < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload pipeline|service|stream --seed N>=0 --seconds S>=1 --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(run, *workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(run func(*bench) error, workload string, seed int64, seconds int, trace bool, out string) error {
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		nproc:   runtime.GOMAXPROCS(0),
		dir:     dir,
		metrics: map[string]metric{},
		samples: map[string]int{},
		detail:  map[string]any{},
		prov:    newProvenance(seed),
	}
	if trace {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	spec, err := loadBenchSpec()
	if err != nil {
		return err
	}
	if trace {
		b.setTuneMetrics()
		err = conform(b.metrics, spec.PerLayer, true)
	} else {
		b.set("ok_ratio", "ratio", b.okRatio())
		err = conform(b.metrics, spec.EndToEnd, false)
	}
	if err != nil {
		return err
	}
	b.prov.Profile = tune.Current()
	b.detail["samples"] = b.samples
	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: max(b.attempted, 1),
		Failed:    len(b.failures),
		Metrics:   b.metrics,
	}
	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Provenance: b.prov, Result: res, Failures: b.failures, Detail: b.detail,
	}
	if b.tr != nil {
		rec.Spans = b.tr.spans
	}
	if err := writeRecord(out, rec); err != nil {
		return err
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores the run's full record as
// <out>/<workload>/<e2e|trace>-seed<N>-<unix nanos>.json.
func writeRecord(out string, rec record) error {
	kind := "e2e"
	if rec.Trace {
		kind = "trace"
	}
	dir := filepath.Join(out, rec.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", kind, rec.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// setTuneMetrics reports the process's resolved kernel tuning. The
// calibration ran during set-up (tune.Current memoizes it).
func (b *bench) setTuneMetrics() {
	p := tune.Current()
	b.set("tune.calibrate_s", "s", p.CalibrationTime.Seconds())
	b.set("tune.grain", "count", float64(p.Grain))
	b.set("tune.degree_threshold", "count", float64(p.DegreeThreshold))
	b.set("tune.workers", "count", float64(b.prov.maxWorkers()))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
