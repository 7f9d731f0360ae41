package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// declared metrics, their units, directions and bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// conform makes the metric set exactly the declared one: per-layer
// metrics a workload does not exercise read 0; anything missing,
// undeclared or in another unit than declared is an error.
func conform(got map[string]metric, want []specMetric, fillZero bool) error {
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok && fillZero:
			got[m.Name] = metric{0, m.Unit}
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case v.Unit != m.Unit:
			return fmt.Errorf("metric %s: unit %s, BENCHMARK.json declares %s", m.Name, v.Unit, m.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// loadRecords reads every end-to-end record under dir, by workload.
func loadRecords(dir string) (map[string][]record, error) {
	out := map[string][]record{}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "e2e-*.json"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// verdict applies the benchmark's bounds and the pairing rule: a gain
// needs at least ten pairs, nine tenths of them won, a median shift
// larger than the parent's own quartile spread, and no more failed
// operations than the parent; a spread wider than the bound leaves the
// metric unresolved unless every change run beats every parent run.
func verdict(m specMetric, parent, change []float64, wins, pairs int, moreFailures bool) string {
	better := func(a, z float64) bool { // a better than z
		if m.Better == "higher" {
			return a > z
		}
		return a < z
	}
	mp, mc := median(parent), median(change)
	q1p, q3p := quartiles(parent)
	q1c, q3c := quartiles(change)
	if pairs >= 10 && 10*wins >= 9*pairs && better(mc, mp) && abs(mc-mp) > q3p-q1p && !moreFailures {
		return "improved"
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	wide := mp != 0 && ((q3p-q1p)/abs(mp) > m.Bound || (mc != 0 && (q3c-q1c)/abs(mc) > m.Bound))
	if wide && !allBetter {
		return "unresolved"
	}
	if mp != 0 && better(mp, mc) && abs(mc-mp)/abs(mp) > m.Bound {
		return "regressed"
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMain prints, for each workload and end-to-end metric, both
// sides' median and quartiles, the pair wins and the verdict. Runs are
// paired by seed where both sides ran it, otherwise in seed order.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <parent-results-dir> <change-results-dir>")
		return 2
	}
	spec, err := loadBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	parent, err := loadRecords(args[0])
	if err == nil {
		var change map[string][]record
		if change, err = loadRecords(args[1]); err == nil {
			err = printComparison(spec, parent, change)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printComparison(spec *benchSpec, parent, change map[string][]record) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tverdict")
	for _, wl := range sortedKeys(parent) {
		ps, cs := parent[wl], change[wl]
		if len(cs) == 0 {
			fmt.Fprintf(w, "%s\t(all)\t%d runs\tno runs\t\t-\n", wl, len(ps))
			continue
		}
		pairs := pairRuns(ps, cs)
		failP, failC := 0, 0
		for _, r := range ps {
			failP += r.Result.Failed
		}
		for _, r := range cs {
			failC += r.Result.Failed
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			wins := 0
			for _, pr := range pairs {
				a, z := pr[1].Result.Metrics[m.Name].Value, pr[0].Result.Metrics[m.Name].Value
				if (m.Better == "higher" && a > z) || (m.Better == "lower" && a < z) {
					wins++
				}
			}
			q1p, q3p := quartiles(pv)
			q1c, q3c := quartiles(cv)
			fmt.Fprintf(w, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				wl, m.Name, median(pv), q1p, q3p, median(cv), q1c, q3c, wins, len(pairs),
				verdict(m, pv, cv, wins, len(pairs), failC*len(ps) > failP*len(cs)))
		}
	}
	for _, wl := range sortedKeys(change) {
		if _, ok := parent[wl]; !ok {
			fmt.Fprintf(w, "%s\t(all)\tno runs\t%d runs\t\t-\n", wl, len(change[wl]))
		}
	}
	return w.Flush()
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairRuns matches parent and change runs of equal seed; runs whose seed
// the other side lacks are paired in seed order.
func pairRuns(ps, cs []record) [][2]record {
	bySeed := map[int64][]record{}
	for _, c := range cs {
		bySeed[c.Seed] = append(bySeed[c.Seed], c)
	}
	var pairs [][2]record
	var restP []record
	for _, p := range ps {
		if q := bySeed[p.Seed]; len(q) > 0 {
			pairs = append(pairs, [2]record{p, q[0]})
			bySeed[p.Seed] = q[1:]
		} else {
			restP = append(restP, p)
		}
	}
	var restC []record
	for _, c := range cs {
		restC = append(restC, bySeed[c.Seed]...)
		bySeed[c.Seed] = nil
	}
	sort.Slice(restC, func(i, j int) bool { return restC[i].Seed < restC[j].Seed })
	for i := 0; i < len(restP) && i < len(restC); i++ {
		pairs = append(pairs, [2]record{restP[i], restC[i]})
	}
	return pairs
}
