// Command compare runs the benchmark on two checkouts — a parent and a
// change — in alternating pairs, and applies the paired rule to every
// end-to-end metric of every workload:
//
//   - gain: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile range;
//   - slower: the same test in the other direction — a significant
//     worsening, even when it stays within the bound;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's BENCHMARK.json bound;
//   - unresolved: either side's spread (IQR ÷ median) exceeds the bound,
//     unless every change run reads better, or every one worse, than every
//     parent run;
//   - within bound: none of the above.
//
// Pair i runs seed first+i on both sides; even pairs run the parent first,
// odd pairs the change. Both sides use the same run length and settings.
// Run it from the change's checkout root, naming the parent's checkout:
//
//	go -C perfbench run ./compare -parent ../parent -change .. -pairs 10
//
// It prints one block per workload, a summary line for each, and exits 1
// when any metric regressed beyond its bound or the change failed more
// operations than the parent (a failed operation misses every latency
// limit, so no gain counts then either).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmark is the part of BENCHMARK.json the comparison needs.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	var (
		parent = flag.String("parent", "", "checkout root of the parent commit")
		change = flag.String("change", "", "checkout root of the change")
		pairs  = flag.Int("pairs", 10, "parent/change pairs per workload")
		first  = flag.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
		only   = flag.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	)
	flag.Parse()
	if *parent == "" || *change == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required, -pairs must be positive")
		os.Exit(2)
	}
	b, err := loadBenchmark(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	regressed := false
	for _, w := range names {
		side := [2]map[string][]float64{{}, {}} // parent, change
		var failed, attempted [2]int64
		for i := range *pairs {
			seed := *first + int64(i)
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				dir := *parent
				if s == 1 {
					dir = *change
				}
				res, err := runOnce(dir, w, seed, b.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "compare: %s seed %d in %s: %v\n", w, seed, dir, err)
					os.Exit(2)
				}
				for k, m := range res.Metrics {
					side[s][k] = append(side[s][k], m.Value)
				}
				failed[s] += res.Failed
				attempted[s] += res.Attempted
			}
		}
		// A failed or refused operation misses every latency limit, so a
		// change that fails more operations than the parent gains nothing and
		// has regressed, whatever its medians say.
		moreFailures := failed[1] > failed[0]
		var vs []verdict
		for _, m := range b.EndToEnd {
			vs = append(vs, judge(m, side[0][m.Name], side[1][m.Name], moreFailures))
		}
		printWorkload(os.Stdout, w, vs, failed, attempted)
		regressed = regressed || moreFailures
		for _, v := range vs {
			regressed = regressed || v.Verdict == "regressed"
		}
	}
	if regressed {
		os.Exit(1)
	}
}

func loadBenchmark(path string) (*benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runResult is the last line a benchmark run prints.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runOnce runs one untraced benchmark run in checkout dir and returns its
// result; a failed correctness gate is an error.
func runOnce(dir, workload string, seed int64, seconds int) (*runResult, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("correctness gate failed")
	}
	return &res, nil
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	Metric         string
	Parent, Change stat
	Wins, Losses   int
	Pairs          int
	Verdict        string
}

type stat struct{ Q1, Median, Q3 float64 }

func (s stat) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's spread is defined.
func quartiles(xs []float64) stat {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return stat{}
	case 1:
		return stat{d[0], d[0], d[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return stat{q(1), q(2), q(3)}
}

// judge applies the paired rule to one metric. parent[i] and change[i] are
// the same pair. moreFailures withholds a gain: the change failed more
// operations than the parent.
func judge(m metric, parent, change []float64, moreFailures bool) verdict {
	v := verdict{Metric: m.Name, Parent: quartiles(parent), Change: quartiles(change), Pairs: min(len(parent), len(change))}
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	for i := range v.Pairs {
		switch {
		case better(change[i], parent[i]):
			v.Wins++
		case better(parent[i], change[i]):
			v.Losses++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	need := int(math.Ceil(0.9 * float64(v.Pairs)))
	gap := math.Abs(v.Change.Median - v.Parent.Median)
	significant := gap > v.Parent.Q3-v.Parent.Q1
	worse := v.Change.Median - v.Parent.Median
	if m.Better == "higher" {
		worse = -worse
	}
	beyondBound := worse > m.Bound*math.Abs(v.Parent.Median)
	noisy := v.Parent.spread() > m.Bound || v.Change.spread() > m.Bound
	switch {
	case !moreFailures && v.Pairs > 0 && v.Wins >= need && significant && !noisy:
		v.Verdict = "gain"
	case !moreFailures && v.Pairs > 0 && v.Wins >= need && allBetter:
		v.Verdict = "gain"
	case beyondBound && (!noisy || allWorse):
		v.Verdict = "regressed"
	case noisy && !allBetter && !allWorse:
		v.Verdict = "unresolved"
	case v.Pairs > 0 && v.Losses >= need && significant:
		v.Verdict = "slower"
	default:
		v.Verdict = "within bound"
	}
	return v
}

// printWorkload prints one workload's table, its failed operations of
// each side (summed over the pairs) and a summary line.
func printWorkload(w io.Writer, workload string, vs []verdict, failed, attempted [2]int64) {
	fmt.Fprintf(w, "== %s\n", workload)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tparent median [q1, q3]\tchange median [q1, q3]\twins/losses/pairs\tverdict")
	byVerdict := map[string][]string{}
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d/%d\t%s\n", v.Metric,
			v.Parent.Median, v.Parent.Q1, v.Parent.Q3, v.Change.Median, v.Change.Q1, v.Change.Q3,
			v.Wins, v.Losses, v.Pairs, v.Verdict)
		byVerdict[v.Verdict] = append(byVerdict[v.Verdict], v.Metric)
	}
	fv := "within bound"
	if failed[1] > failed[0] {
		fv = "regressed"
		byVerdict[fv] = append(byVerdict[fv], "failed ops")
	}
	fmt.Fprintf(tw, "failed ops\t%d of %d\t%d of %d\t\t%s\n", failed[0], attempted[0], failed[1], attempted[1], fv)
	tw.Flush()
	var parts []string
	for _, k := range []string{"gain", "slower", "regressed", "unresolved"} {
		if len(byVerdict[k]) > 0 {
			parts = append(parts, k+": "+strings.Join(byVerdict[k], ", "))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "every metric within bound")
	}
	fmt.Fprintf(w, "%s: %s\n\n", workload, strings.Join(parts, "; "))
}
