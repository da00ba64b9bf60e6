package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: bulk or serve-replicated")
		seed    = flag.Int64("seed", 1, "input seed: the graph, writes, keys and read targets all derive from it")
		seconds = flag.Float64("seconds", 45, "length of the steady open-loop phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	)
	flag.Parse()
	code, err := benchmain(*name, *seed, *seconds, *trace == 1, 0, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// detail is the line printed before the result: the same metrics with
// sample counts and tail percentiles, plus what a reader needs to compare
// two results.
type detail struct {
	Workload string              `json:"workload"`
	Why      string              `json:"why"`
	Trace    bool                `json:"trace"`
	Meta     map[string]any      `json:"meta"`
	Params   map[string]any      `json:"params"`
	Gate     map[string]any      `json:"gate"`
	Metrics  map[string]reported `json:"metrics"`
	// Targets names, for each per-layer metric, the end-to-end metric it
	// should move and the workloads that show it most / least.
	Targets map[string]string `json:"targets,omitempty"`
}

// benchmain runs one workload and writes the detail and result lines; a
// scale above 0 shrinks its graph to about that many vertices (the package's
// tests). It returns 0 when the run completed and passed the correctness gate, 1 when
// the gate failed, 2 on any other error (then no result is printed).
func benchmain(name string, seed int64, seconds float64, traced bool, scale int, stdout io.Writer) (int, error) {
	w, err := workloadByName(name)
	if err != nil {
		return 2, err
	}
	if seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	wl := *w
	if scale > 0 {
		wl = wl.scaled(scale)
	}
	base := os.Getenv("PERFBENCH_OUT")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 2, err
	}
	out, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(out)

	in := wl.generate(seed, seconds)
	r := &run{
		w: &wl, in: in, traced: traced, out: out,
		tau: 1e-3 / float64(in.n), tr: newTracer(traced),
		rankSeqs: map[uint64]bool{}, layers: map[string]float64{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	ok, why, err := r.execute(ctx)
	if err != nil {
		return 2, err
	}

	var metrics map[string]reported
	if traced {
		metrics = r.layerMetrics()
		path := filepath.Join(base, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, seed))
		if err := r.tr.write(path); err != nil {
			return 2, err
		}
	} else {
		metrics = r.endToEndMetrics()
	}
	gate := map[string]any{"passed": ok, "linf": r.gateLInf, "bound": 20 * r.tau, "n": r.final.n, "m": r.final.m, "version": r.final.seq}
	if !ok {
		gate["error"] = why
	}
	d := detail{
		Workload: wl.name, Why: wl.why, Trace: traced, Meta: meta(seed), Gate: gate, Metrics: metrics,
		Params: map[string]any{
			"seconds": seconds, "graph": wl.spec.Name, "n": in.n, "m": len(in.edges), "batch_edits": in.batch,
			"write_rate": wl.writeRate, "read_rate": wl.readRate, "writes": in.nSteady, "reads": len(in.reads),
			"backlog_writes": wl.backlog, "catchup_reps": wl.catchupReps, "setup_reps": setupReps,
			"tau": r.tau, "threads": 2, "history": 64, "served": wl.served,
		},
	}
	if traced {
		d.Targets = map[string]string{}
		for _, m := range perLayer {
			d.Targets[m.name] = m.moves + " (" + m.on + ")"
		}
	}
	// The result carries exactly the metrics BENCHMARK.json lists.
	listed := endToEnd
	if traced {
		listed = perLayer
	}
	res := result{Correct: ok, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]reported{}}
	for _, m := range listed {
		res.Metrics[m.name] = reported{Value: metrics[m.name].Value, Unit: m.unit}
	}
	bw := bufio.NewWriter(stdout)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d); err != nil {
		return 2, err
	}
	if err := enc.Encode(res); err != nil {
		return 2, err
	}
	if err := bw.Flush(); err != nil {
		return 2, err
	}
	if !ok {
		return 1, fmt.Errorf("correctness gate failed: %s", why)
	}
	return 0, nil
}

// meta describes the build and the machine a result came from.
func meta(seed int64) map[string]any {
	return map[string]any{
		"seed": seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "rev": gitRev(),
		"held_out_seed": heldOutSeed,
	}
}

// heldOutSeed is reserved for checking a claimed gain after the change was
// written; do not tune against it.
const heldOutSeed = 9001

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev names the checked-out commit when the working directory is a git
// checkout, and "unknown" otherwise (an exported tree carries no history).
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}
