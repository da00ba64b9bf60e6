package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"dfpr"
	"dfpr/internal/batch"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// workload is one named traffic mix. Every input it needs derives from the
// seed given to generate; the engine only ever sees the generated inputs.
type workload struct {
	name string
	why  string
	// served puts the engine behind serve.Server on loopback, durable, with
	// one streamed replica; otherwise the benchmark calls the engine in process.
	served bool
	// spec is the generated start graph (gen.Web, its Seed replaced by the
	// run's seed).
	spec gen.Spec
	// batch is the edits per write; batchFrac, when set, overrides it as a
	// fraction of the start graph's edges (the paper's batch-size axis).
	batch     int
	batchFrac float64
	// writeRate and readRate are the open-loop offered rates, per second.
	writeRate, readRate float64
	// backlog is the writes per catch-up repetition, and catchupReps how
	// many backlogs a run drains; catchup_edits_per_s reports the median.
	backlog, catchupReps int
	// newKeyEvery makes every k-th write of a served workload insert an
	// edge to a key the engine has not seen.
	newKeyEvery int
}

// The stand-in graphs: sk-2005 is gen.SuiteSparse12(1)'s sk-2005 entry
// (65,536 vertices, ~2.24M edges); web-65k is the prserve -gen web graph
// at -n 65536 -deg 12 (~0.8M edges).
var (
	sk2005 = gen.Spec{Name: "sk-2005", Class: gen.Web, N: 40 << 10, Deg: 39}
	web65k = gen.Spec{Name: "web-65k", Class: gen.Web, N: 1 << 16, Deg: 12}
)

var workloads = []workload{
	{
		name: "bulk",
		why:  "writes of 1e-3|E| edges on the sk-2005 stand-in: a wide DF frontier makes the core/sched sweeps most of the work; snapshot or ingest changes should not move write_ranked",
		spec: sk2005, batchFrac: 1e-3, writeRate: 1.35, readRate: 100, backlog: 4, catchupReps: 21,
	},
	{
		name:   "serve-replicated",
		why:    "keyed HTTP writes and reads on a durable writer with one streamed replica: the only mix that reaches serve, wal, repl and keymap",
		served: true, spec: web65k, batch: 8, writeRate: 3.2, readRate: 150, backlog: 100, catchupReps: 31, newKeyEvery: 4,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupReps is how many times a run builds its system anew; setup_s
// reports the median.
const setupReps = 5

// scale shrinks a workload for the package's own tests: a smaller graph and
// backlog, same rates and shape.
func (w workload) scaled(n int) workload {
	w.spec.N = n
	w.backlog = max(w.backlog/10, 2)
	return w
}

// write is one generated write: dense edges, and for served workloads the
// same edges by key.
type write struct {
	del, ins   []dfpr.Edge
	kdel, kins []dfpr.KeyEdge
}

func (w write) size() int { return len(w.del) + len(w.ins) }

// read is one generated read: a vertex to score, or a top-10 leaderboard;
// served reads alternate between the writer and the replica.
type read struct {
	u       uint32
	topk    bool
	replica bool
}

// inputs is everything a run feeds the system.
type inputs struct {
	n       int
	edges   []dfpr.Edge    // start graph, dense
	kedges  []dfpr.KeyEdge // start graph by key (served)
	batch   int
	writes  []write // steady-phase writes, then the catch-up backlogs
	nSteady int
	reads   []read
}

// vkey names dense vertex u in the keyed workloads.
func vkey(u uint32) string { return "v" + strconv.FormatUint(uint64(u), 10) }

// generate builds the run's inputs from seed for a steady phase of seconds.
func (w workload) generate(seed int64, seconds float64) *inputs {
	spec := w.spec
	spec.Seed = seed
	d := spec.Build()
	in := &inputs{n: d.N()}
	in.edges = make([]dfpr.Edge, 0, d.M())
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			in.edges = append(in.edges, dfpr.Edge{U: u, V: v})
		}
	}
	in.batch = w.batch
	if w.batchFrac > 0 {
		in.batch = max(int(w.batchFrac*float64(d.M())), 2)
	}
	in.nSteady = max(int(w.writeRate*seconds), 1)
	total := in.nSteady + w.catchupReps*w.backlog
	// One sample of distinct deletions of start-graph edges and distinct
	// insertions of start-graph non-edges, dealt out in order: every write is
	// valid whatever rounds the engine coalesces them into.
	pool := batch.Random(d, total*in.batch, seed+1)
	nDel, nIns := in.batch/2, in.batch-in.batch/2
	in.writes = make([]write, total)
	for i := range in.writes {
		wr := write{
			del: toPublic(pool.Del[min(i*nDel, len(pool.Del)):min((i+1)*nDel, len(pool.Del))]),
			ins: toPublic(pool.Ins[min(i*nIns, len(pool.Ins)):min((i+1)*nIns, len(pool.Ins))]),
		}
		if w.served {
			wr.kdel = keyed(wr.del)
			wr.kins = keyed(wr.ins)
			if w.newKeyEvery > 0 && i%w.newKeyEvery == 0 && len(wr.kins) > 0 {
				wr.kins[len(wr.kins)-1].To = "n" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(i)
			}
		}
		in.writes[i] = wr
	}
	if w.served {
		in.kedges = keyed(in.edges)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	in.reads = make([]read, max(int(w.readRate*seconds), 1))
	for i := range in.reads {
		in.reads[i] = read{u: uint32(rng.Intn(in.n)), topk: rng.Intn(10) == 0, replica: w.served && i%2 == 1}
	}
	return in
}

func toPublic(es []graph.Edge) []dfpr.Edge {
	out := make([]dfpr.Edge, len(es))
	for i, e := range es {
		out[i] = dfpr.Edge{U: e.U, V: e.V}
	}
	return out
}

func keyed(es []dfpr.Edge) []dfpr.KeyEdge {
	out := make([]dfpr.KeyEdge, len(es))
	for i, e := range es {
		out[i] = dfpr.KeyEdge{From: vkey(e.U), To: vkey(e.V)}
	}
	return out
}
