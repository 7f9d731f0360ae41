package main

import "testing"

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the spread rule the benchmark's
// acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.3, 0.1, 0.2}, 0.1, 0.3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, n, ok := tail(xs)
	if !ok || v != 30 || pct != 75 || n != 40 {
		t.Errorf("tail(1..40) = %v, %v, %v, %v; want 30 (ten samples beyond), 75, 40, true", v, pct, n, ok)
	}
	if _, _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of ten samples is defined; want undefined")
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Name: "x", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	up := make([]float64, len(base))
	down := make([]float64, len(base))
	for i, v := range base {
		up[i], down[i] = v*1.2, v*0.8
	}
	if got := verdict(m, base, up, 10, 10, false); got != "improved" {
		t.Errorf("20%% faster on every pair: %s, want improved", got)
	}
	if got := verdict(m, base, up, 10, 10, true); got == "improved" {
		t.Error("a gain with more failures counted as improved")
	}
	if got := verdict(m, base, down, 0, 10, false); got != "regressed" {
		t.Errorf("20%% slower: %s, want regressed", got)
	}
	if got := verdict(m, base, base, 0, 10, false); got != "unchanged" {
		t.Errorf("same runs: %s, want unchanged", got)
	}
	wide := []float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}
	if got := verdict(m, wide, base, 5, 10, false); got != "unresolved" {
		t.Errorf("parent spread wider than the bound: %s, want unresolved", got)
	}
}
