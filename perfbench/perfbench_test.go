package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		p := tailPercentile(n)
		beyond := n - rank(p, n)
		if p > 50 && beyond < tailBeyond {
			t.Fatalf("n=%d: tail p%v leaves %d samples beyond", n, p, beyond)
		}
		// No higher rung qualifies.
		for _, q := range tailLadder {
			if q > p && n-rank(q, n) >= tailBeyond {
				t.Fatalf("n=%d: p%v qualifies but tail reports p%v", n, q, p)
			}
		}
	}
	for n, want := range map[int]float64{20: 50, 40: 75, 96: 75, 100: 90, 200: 95, 3000: 99, 10: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOpenLoopCountsFromDue(t *testing.T) {
	const period = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	var late samples
	lat := make([]time.Duration, 20)
	start := time.Now().Add(period)
	openLoop(context.Background(), start, period, len(lat), &late, func(i int, due time.Time) {
		if i == 3 {
			time.Sleep(stall) // one slow call
		}
		lat[i] = time.Since(due)
	})
	if lat[3] < stall {
		t.Fatalf("stalled call measured %v, want ≥ %v", lat[3], stall)
	}
	// Calls due during the stall start late, and their latency counts the
	// wait from their due time rather than from when they were sent.
	for i := 4; i < 4+int(stall/period)-2; i++ {
		if want := stall - time.Duration(i-3)*period; lat[i] < want {
			t.Errorf("call %d measured %v after the stall, want ≥ %v", i, lat[i], want)
		}
	}
	if late.len() != len(lat) {
		t.Fatalf("lateness recorded for %d of %d calls", late.len(), len(lat))
	}
	if s := late.sorted(); s[len(s)-1] < ms(stall/2) {
		t.Errorf("max lateness %v ms, want ≥ %v ms", s[len(s)-1], ms(stall/2))
	}
}

func TestHistogramQuantile(t *testing.T) {
	cum := map[float64]float64{1: 0, 2: 10, 4: 20}
	if got := bucketQuantile(cum, 0.25); got != 1.5 {
		t.Errorf("p25 = %v, want 1.5 (interpolated within (1, 2])", got)
	}
	if got := bucketQuantile(cum, 0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := bucketQuantile(map[float64]float64{}, 0.5); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// TestTinyRuns runs every workload at a tiny scale, untraced and traced:
// each must pass the correctness gate and print exactly its metrics, each
// with its unit.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var out bytes.Buffer
			code, err := benchmain(w.name, 7, 1, traced, 2048, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s traced=%v: exit %d: %v", w.name, traced, code, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			var d detail
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
				t.Fatalf("%s: detail line: %v", w.name, err)
			}
			if !traced {
				for _, m := range tails {
					if got, ok := d.Metrics[m.name]; !ok || got.Unit != m.unit || got.Samples < 1 {
						t.Errorf("%s: detail metric %s = %+v, want unit %s and a sample count", w.name, m.name, got, m.unit)
					}
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the benchmark's workloads and
// metric tables.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, better []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || better[i] != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, names[i], units[i], better[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
}
