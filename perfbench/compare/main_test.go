package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != (stat{2.75, 5.5, 8.25}) {
		t.Errorf("quartiles(1..10) = %+v", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartiles([]float64{3, 1, 2}); got != (stat{1, 2, 3}) {
		t.Errorf("quartiles(1..3) = %+v", got)
	}
}

func TestJudge(t *testing.T) {
	lat := metric{Name: "write_ranked_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		m      metric
		change []float64
		want   string
	}{
		{"same", lat, base, "within bound"},
		{"20% slower", lat, scaled(1.2), "regressed"},
		{"5% slower", lat, scaled(1.05), "slower"},
		{"20% faster", lat, scaled(0.8), "gain"},
		{"throughput up", metric{Name: "catchup_edits_per_s", Better: "higher", Bound: 0.1}, scaled(1.2), "gain"},
		{"noisy", lat, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if got := judge(tc.m, base, tc.change, false).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFailuresWithholdGain: a change that fails more operations than the
// parent gains nothing from faster medians.
func TestFailuresWithholdGain(t *testing.T) {
	lat := metric{Name: "write_ranked_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	change := make([]float64, len(parent))
	for i, v := range parent {
		change[i] = 0.8 * v
	}
	if got := judge(lat, parent, change, true).Verdict; got == "gain" {
		t.Errorf("verdict %q with more failures than the parent", got)
	}
}
