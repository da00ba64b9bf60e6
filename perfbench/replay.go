package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dfpr"
	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/snapshot"
	"dfpr/internal/topk"
	"dfpr/internal/wal"
)

// round is one ingest round as the engine ran it: the submissions whose
// tickets returned the same version, in submission order.
type round struct {
	seq uint64
	ups []batch.Update
	ops []int
}

// startGraph is the graph the measured writes start from, in the writer's
// dense id space, with the version it was published as.
type startGraph struct {
	seq   uint64
	n     int
	edges []dfpr.Edge
	keys  []string // served: the key of every id the run interned
}

func toUpdate(del, ins []dfpr.Edge) batch.Update {
	up := batch.Update{Del: toInternal(del), Ins: toInternal(ins)}
	up.N = up.Universe(0)
	return up
}

func toInternal(es []dfpr.Edge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// rounds recovers the round composition from the versions the writes'
// tickets returned, and the start graph in the writer's id space. It must
// run while the writer is open: keyed writes resolve through its keymap.
func (r *run) rounds(sys system) ([]round, error) {
	wr := sys.writer()
	s, keyed := sys.(*served)
	if keyed {
		edges := make([]dfpr.Edge, len(r.in.kedges))
		n := 0
		for i, e := range r.in.kedges {
			u, ok1 := wr.Resolve(e.From)
			v, ok2 := wr.Resolve(e.To)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("start-graph key %s→%s not interned", e.From, e.To)
			}
			edges[i] = dfpr.Edge{U: u, V: v}
			n = max(n, int(u)+1, int(v)+1)
		}
		r.start.n, r.start.edges = n, edges
		r.start.keys = make([]string, wr.Keys())
		for id := range r.start.keys {
			r.start.keys[id], _ = wr.KeyOf(uint32(id))
		}
	} else {
		r.start.n, r.start.edges = r.in.n, r.in.edges
	}
	var out []round
	for _, op := range r.subOrder {
		seq := r.seqs[op]
		if seq == 0 {
			continue // never reached the engine; counted as failed already
		}
		w := r.in.writes[op]
		del, ins := w.del, w.ins
		if keyed {
			var err error
			var ot *opTrace
			if r.traced {
				ot = &opTrace{tr: r.tr, op: op}
			}
			if del, ins, err = s.resolve(w, ot); err != nil {
				return nil, err
			}
		}
		up := toUpdate(del, ins)
		switch {
		case len(out) > 0 && out[len(out)-1].seq == seq:
			last := &out[len(out)-1]
			last.ups = append(last.ups, up)
			last.ops = append(last.ops, op)
		case len(out) > 0 && seq < out[len(out)-1].seq:
			return nil, fmt.Errorf("write %d landed in version %d after a write in version %d", op, seq, out[len(out)-1].seq)
		default:
			out = append(out, round{seq: seq, ups: []batch.Update{up}, ops: []int{op}})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no write completed")
	}
	r.start.seq = out[0].seq - 1
	return out, nil
}

// replay re-applies the recorded rounds to a fresh copy of the start graph
// and returns the final CSR. A traced run times every call as a span and
// adds the stages a round goes through in the engine: batch.Merge,
// wal.Log.Append (served workloads), snapshot.Store.Apply,
// snapshot.Ranker.RefreshTrace at each version the engine published ranks
// for, and the first top-k selection on the refreshed ranks.
func (r *run) replay(ctx context.Context, rounds []round) (*graph.CSR, error) {
	st := r.start
	d := graph.NewDynamic(st.n)
	for _, e := range st.edges {
		d.AddEdge(e.U, e.V)
	}
	if !r.traced {
		store := snapshot.NewStoreAt(d, 1, st.seq)
		for _, rd := range rounds {
			if _, next := store.Apply(batch.Merge(rd.ups...)); next.Seq != rd.seq {
				return nil, fmt.Errorf("replay published version %d for round %d", next.Seq, rd.seq)
			}
		}
		return store.Current().G, nil
	}

	store := snapshot.NewStoreAt(d, snapshot.DefaultHistory, st.seq)
	cfg := core.Config{Tol: r.tau, FrontierTol: r.tau / frontierDiv, Threads: 2}
	ranker, _, err := snapshot.NewRanker(ctx, store, core.AlgoDFLF, cfg)
	if err != nil {
		return nil, err
	}
	var log *wal.Log
	fsyncs := &samples{}
	walDir := filepath.Join(r.out, "replay-wal")
	if r.w.served {
		if log, _, err = wal.Open(walDir, wal.Options{OnFsync: func(d time.Duration) { fsyncs.add(ms(d)) }}); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
		defer log.Close()
	}
	heap0 := liveHeap()

	var (
		in, kept      int
		iters         samples
		msPerIter     samples
		affected      samples
		versionBytes  float64
		refreshes     int
		advanced      int
		stageTotal    time.Duration
		observedTotal time.Duration
		keysLogged    = st.n
	)
	// Checkpoints rotate and prune the log, so its size is summed between
	// them.
	var walBytes, walBase int64
	ckptAt := map[int]bool{len(rounds) / 4: true, len(rounds) / 2: true, 3 * len(rounds) / 4: true}
	for k, rd := range rounds {
		// A round's replay spans share the op of the write that opened it,
		// under one replay.round root.
		first := rd.ops[0]
		ot := &opTrace{tr: r.tr, op: first, parent: r.tr.reserve()}
		var stage time.Duration
		t0 := time.Now()
		roundStart := t0
		merged := batch.Merge(rd.ups...)
		t1 := time.Now()
		ot.record("batch.Merge", t0, t1)
		stage += t1.Sub(t0)
		for _, up := range rd.ups {
			in += up.Size()
		}
		kept += merged.Size()

		if log != nil {
			cur := store.Current()
			nAfter := merged.Universe(cur.G.N())
			rec := wal.Record{Seq: cur.Seq + 1, N: uint64(nAfter), Del: merged.Del, Ins: merged.Ins}
			if nAfter > keysLogged {
				rec.KeyBase = uint32(keysLogged)
				rec.Keys = st.keys[keysLogged:nAfter]
				keysLogged = nAfter
			}
			t0 := time.Now()
			if err := log.Append(&rec); err != nil {
				return nil, fmt.Errorf("replay wal append: %w", err)
			}
			t1 := time.Now()
			ot.record("wal.Append", t0, t1)
			stage += t1.Sub(t0)
		}

		t0 = time.Now()
		_, next := store.Apply(merged)
		t1 = time.Now()
		ot.record("snapshot.Apply", t0, t1)
		stage += t1.Sub(t0)
		if next.Seq != rd.seq {
			return nil, fmt.Errorf("replay published version %d for round %d", next.Seq, rd.seq)
		}
		versionBytes += float64(next.G.Bytes())

		if r.rankSeqs[rd.seq] || k == len(rounds)-1 {
			t0 := time.Now()
			res, series, adv, err := ranker.RefreshTrace(ctx)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("replay refresh: %w", err)
			}
			ot.record("core.RefreshTrace", t0, t1)
			stage += t1.Sub(t0)
			refreshes++
			advanced += adv
			iters.add(float64(res.Iterations))
			if res.Iterations > 0 {
				msPerIter.add(ms(t1.Sub(t0)) / float64(res.Iterations))
			}
			if len(series) > 0 {
				affected.add(float64(series[len(series)-1].Affected) / float64(next.G.N()))
			}
			t0 = time.Now()
			topk.Select(ranker.RanksShared(), 10)
			t1 = time.Now()
			ot.record("topk.Select", t0, t1)
			stage += t1.Sub(t0)
		}
		if log != nil && ckptAt[k] {
			if err := log.Sync(); err != nil {
				return nil, err
			}
			walBytes += dirBytes(walDir, "wal-") - walBase
			v := ranker.Version()
			t0 := time.Now()
			err := log.WriteCheckpoint(&wal.State{Seq: v.Seq, Graph: v.G, Ranks: ranker.RanksShared(), Keys: st.keys[:v.G.N()]})
			if err != nil {
				return nil, fmt.Errorf("replay checkpoint: %w", err)
			}
			ot.record("wal.WriteCheckpoint", t0, time.Now())
			walBase = dirBytes(walDir, "wal-")
		}
		r.tr.recordAs(ot.parent, "replay.round", first, 0, roundStart, time.Now())
		// Coverage counts only the rounds whose opening write was observed
		// end to end: catch-up writes and failed waits have no observed time.
		if r.obs[first] > 0 {
			stageTotal += stage
			observedTotal += r.obs[first]
		}
	}

	retained := min(len(rounds)+1, snapshot.DefaultHistory)
	heap1 := liveHeap()
	L := r.layers
	L["batch.merge_kept_frac"] = ratio(float64(kept), float64(in))
	L["snapshot.version_bytes"] = versionBytes / float64(len(rounds))
	if retained > 1 {
		L["snapshot.heap_per_version_mb"] = (heap1 - heap0) / float64(retained-1)
	}
	L["core.iterations_p50"] = summarize(&iters).P50
	L["core.ms_per_iteration_p50"] = summarize(&msPerIter).P50
	L["core.affected_frac_p50"] = summarize(&affected).P50
	L["core.versions_per_refresh"] = ratio(float64(advanced), float64(refreshes))
	L["trace.coverage"] = ratio(float64(stageTotal), float64(observedTotal))
	if log != nil {
		L["wal.fsync_ms_p50"] = summarize(fsyncs).P50
		if err := log.Sync(); err != nil {
			return nil, err
		}
		walBytes += dirBytes(walDir, "wal-") - walBase
		L["wal.bytes_per_record"] = ratio(float64(walBytes), float64(len(rounds)))
	}
	return store.Current().G, nil
}

// liveHeap returns the live heap in MB after a collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the files in dir whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if len(e.Name()) < len(prefix) || e.Name()[:len(prefix)] != prefix {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// gate checks the replayed final graph against the engine's and the
// engine's final ranks against a reference solve on it: L∞ ≤ 20τ, the bound
// the snapshot package's tests apply to incremental refreshes.
func (r *run) gate(g *graph.CSR) (bool, string) {
	if g.N() != r.final.n || g.M() != r.final.m {
		return false, fmt.Sprintf("replayed graph n=%d m=%d, engine n=%d m=%d", g.N(), g.M(), r.final.n, r.final.m)
	}
	ref := core.Reference(g, core.Config{Tol: r.tau / 100})
	for i, ranks := range r.final.ranks {
		linf := topk.LInf(ranks, ref)
		r.gateLInf = append(r.gateLInf, linf)
		if linf > 20*r.tau {
			return false, fmt.Sprintf("ranks %d: L∞ %.3g vs reference exceeds 20τ = %.3g", i, linf, 20*r.tau)
		}
	}
	return true, ""
}
