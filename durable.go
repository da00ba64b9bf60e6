package dfpr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/keymap"
	"dfpr/internal/snapshot"
	"dfpr/internal/wal"
)

// This file wires the durability subsystem (internal/wal) into the engine:
// construction-time recovery (openDurable, engineAt), the log-before-publish
// apply path (storeApply), the path for records already in a log
// (applyLogged), background checkpointing off the publish path, and the
// observability surface (Recovering, Stats.Durability, Checkpoint).

// durability is the engine's durable-state sidecar.
type durability struct {
	log *wal.Log
	// ckptEvery is the checkpoint cadence in published rank versions.
	ckptEvery uint64

	// mu serialises append-then-apply so log order always equals publication
	// order — the invariant replay depends on. keysLogged (the key-space
	// prefix already made durable) is guarded by it.
	mu         sync.Mutex
	keysLogged int

	lastCkpt atomic.Uint64 // seq of the newest durable checkpoint
	ckptBusy atomic.Bool   // one background checkpoint in flight at a time
	ckptWG   sync.WaitGroup

	// recoverTip is the graph version recovery replayed up to; recovering
	// stays set until published ranks catch it.
	recoverTip uint64
	recovering atomic.Bool
	replayed   int // tail records replayed at recovery (diagnostic)
}

// durable returns the engine's durability sidecar, nil while the engine has
// none (volatile engines, and followers until promotion installs it).
func (e *Engine) durable() *durability { return e.dur.Load() }

// HasDurableState reports whether dir holds recoverable engine state from a
// previous WithDurability run — the probe cmd/prserve uses to skip loading
// an input graph when a warm restart will supersede it anyway.
func HasDurableState(dir string) (bool, error) {
	return wal.HasState(dir, nil)
}

// openDurable is New/Open for WithDurability engines: a fresh directory is
// seeded with checkpoint 0 of the newly built engine; a directory with
// state recovers it instead — the latest valid checkpoint is loaded, the
// rank vector (if one was checkpointed) is resumed without recomputation,
// and the WAL tail is replayed through the normal apply path. Persisted
// state takes precedence over the n/edges arguments.
func openDurable(n int, edges []Edge, st settings) (*Engine, error) {
	log, rec, err := openLog(st.durDir, st)
	if err != nil {
		return nil, fmt.Errorf("dfpr: open durability dir: %w", err)
	}
	e, err := func() (*Engine, error) {
		if !rec.HasState {
			return seedDurable(n, edges, st, log)
		}
		return recoverDurable(st, log, rec)
	}()
	if err != nil {
		log.Close()
		return nil, err
	}
	return e, nil
}

// openLog opens the write-ahead log in dir under st's fsync policy — for
// construction and for promotion alike. The fsync histogram is registered
// ahead of the log so the hook exists for fsyncs issued during recovery; the
// engine's initTelemetry get-or-creates the same series.
func openLog(dir string, st settings) (*wal.Log, *wal.Recovered, error) {
	fsyncSeconds := st.tel.Histogram("dfpr_wal_fsync_seconds",
		"WAL fsync latency (per Append under FsyncAlways, per flush otherwise).", walBuckets())
	return wal.Open(dir, wal.Options{
		Mode: st.fsync.mode, Interval: st.fsync.interval, FS: st.walFS,
		OnFsync: func(d time.Duration) { fsyncSeconds.Observe(d.Seconds()) },
	})
}

// seedDurable builds a fresh engine and writes its version-0 state as the
// seed checkpoint, anchoring all future replay.
func seedDurable(n int, edges []Edge, st settings, log *wal.Log) (*Engine, error) {
	e, err := newEngine(n, edges, st)
	if err != nil {
		return nil, err
	}
	e.adoptLog(log, 0, 0, 0)
	if err := e.Checkpoint(); err != nil {
		// A directory that cannot take its seed checkpoint would be
		// unrecoverable; refuse to start rather than run silently volatile.
		return nil, fmt.Errorf("dfpr: seed checkpoint: %w", err)
	}
	return e, nil
}

// recoverDurable rebuilds an engine from recovered state: engineAt seals the
// store at the checkpoint's version and resumes the checkpointed ranks, then
// applyLogged folds the WAL tail on top. Resuming BEFORE the replay makes
// the ranker's parent version the store's base, so the first Rank refreshes
// the tail incrementally as one coalesced span — the refresh a live engine
// takes when it is several versions behind. The engine serves reads at the
// checkpointed rank version immediately; Recovering reports true until a
// Rank catches the replayed tip (the serve layer holds writes off with 503
// meanwhile).
func recoverDurable(st settings, log *wal.Log, rec *wal.Recovered) (*Engine, error) {
	e, err := engineAt(st, rec.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("dfpr: recover %s: %w", st.durDir, err)
	}
	replayed, err := e.applyLogged(rec.Tail)
	if errors.Is(err, errKeyedOnDense) {
		return nil, fmt.Errorf("dfpr: %s holds a keyed engine's state — recover it with Open, not New", st.durDir)
	}
	if err != nil {
		return nil, fmt.Errorf("dfpr: recover %s: replay tail: %w", st.durDir, err)
	}
	e.adoptLog(log, rec.Checkpoint.Seq, replayed, rec.Checkpoint.Seq)
	return e, nil
}

// engineAt builds an engine sealed at checkpointed state — the one
// constructor shared by warm restart (a local checkpoint) and replica
// bootstrap (a leader's feed checkpoint). The key space is re-interned in
// its dense order and, when the checkpoint carries ranks, the ranker is
// resumed at them without recomputation and published as a view right away:
// reads come back at the checkpointed watermark before any refresh.
func engineAt(st settings, ck *wal.State) (*Engine, error) {
	if keyedState := len(ck.Keys) > 0; keyedState != st.keyed && (keyedState || ck.Graph.N() > 0) {
		if keyedState {
			return nil, errors.New("checkpoint holds a keyed engine's state — open it with Open, not New")
		}
		return nil, errors.New("checkpoint holds a dense-ID engine's state — open it with New, not Open")
	}
	if ck.Graph.N() > st.maxN {
		return nil, fmt.Errorf("checkpoint holds %d vertices, beyond the bound %d (WithMaxVertices): %w",
			ck.Graph.N(), st.maxN, ErrTooManyVertices)
	}
	if len(ck.Keys) > 0 && len(ck.Keys) < ck.Graph.N() {
		return nil, fmt.Errorf("checkpoint covers %d vertices with only %d keys", ck.Graph.N(), len(ck.Keys))
	}
	e := &Engine{
		opts:     st,
		store:    snapshot.NewStoreAt(graph.DynamicFromCSR(ck.Graph), st.history, ck.Seq),
		subs:     make(map[uint64]*Subscription),
		applyble: true,
	}
	e.initTelemetry(st.tel)
	if st.keyed {
		e.keys = keymap.New()
		for i, k := range ck.Keys {
			if id := e.keys.Intern(k); int(id) != i {
				return nil, fmt.Errorf("checkpoint repeats key %q", k)
			}
		}
		e.keys.Sync()
	}
	if ck.Ranks != nil {
		rk, err := snapshot.ResumeRanker(e.store, st.algo, st.cfg, ck.Ranks, ck.Seq)
		if err != nil {
			return nil, fmt.Errorf("resume checkpointed ranks: %w", err)
		}
		e.adoptRanker(rk)
		e.publishLocked(&Result{Seq: ck.Seq, Converged: true})
	}
	e.verWM.init(ck.Seq)
	return e, nil
}

// adoptLog installs the durability sidecar over log once the engine holds
// every logged record: ckptSeq is the log's newest checkpoint, replayed the
// number of tail records applied on top of it, and ranked the rank version
// already served. While ranks trail the current version Recovering reports
// true. Warm restart, promotion and seeding all end here.
func (e *Engine) adoptLog(log *wal.Log, ckptSeq uint64, replayed int, ranked uint64) {
	d := &durability{log: log, ckptEvery: uint64(e.opts.ckptEvery), replayed: replayed}
	if e.keys != nil {
		d.keysLogged = e.keys.Len()
	}
	d.noteCheckpoint(ckptSeq)
	d.recoverTip = e.store.Current().Seq
	d.recovering.Store(d.recoverTip > ranked)
	e.dur.Store(d)
	e.initDurabilityTelemetry()
}

// applyLogged is the one path for rounds already in a write-ahead log: a
// replica's stream, the tail a promoted replica had not streamed yet, and
// the tail replayed at warm restart. Appending them again would double the
// log (or fork the writer's), so they skip storeApply. Records at or below
// the current version are skipped (promotion replays a tail that may
// overlap the stream); the rest must continue the version sequence without
// a gap, keyed records must extend the key space exactly where it ends, and
// a dense-ID engine takes no keyed record. Every check runs before anything
// changes, so a rejected run leaves the engine as it was. The accepted
// records are folded into ONE merged application landing at their tip: a
// store version costs a CSR materialisation, so per-record application
// would make catch-up scale with the run's length. The resumed ranker
// refreshes the merged batch as a single coalesced span. It returns how
// many records were applied.
func (e *Engine) applyLogged(recs []wal.Record) (int, error) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if !e.applyble {
		return 0, ErrClosed
	}
	cur := e.store.Current()
	nkeys := 0
	if e.keys != nil {
		nkeys = e.keys.Len()
	}
	var ups []batch.Update
	var keyed []*wal.Record // accepted records that carry keys
	for i := range recs {
		r := &recs[i]
		tip := cur.Seq + uint64(len(ups))
		if r.Seq <= tip {
			continue
		}
		if r.Seq != tip+1 {
			return 0, fmt.Errorf("log gap: record %d follows version %d", r.Seq, tip)
		}
		if len(r.Keys) > 0 {
			if e.keys == nil {
				return 0, fmt.Errorf("%w: record %d", errKeyedOnDense, r.Seq)
			}
			if int(r.KeyBase) != nkeys {
				return 0, fmt.Errorf("record %d logs keys from id %d, key space has %d", r.Seq, r.KeyBase, nkeys)
			}
			nkeys += len(r.Keys)
			keyed = append(keyed, r)
		}
		ups = append(ups, batch.Update{Del: r.Del, Ins: r.Ins, N: int(r.N)})
	}
	if len(ups) == 0 {
		return 0, nil
	}
	for _, r := range keyed {
		for _, k := range r.Keys {
			e.keys.Intern(k)
		}
	}
	if len(keyed) > 0 {
		e.keys.Sync()
	}
	tip := cur.Seq + uint64(len(ups))
	up := batch.Merge(ups...)
	e.met.notePublished(cur.G.N(), up.Universe(cur.G.N()))
	//lint:allow lockorder records in a log are already durable; storeApply would append them again
	e.store.ApplyAt(up, tip)
	e.verWM.advance(tip)
	return len(ups), nil
}

// errKeyedOnDense rejects a logged record carrying keys on a dense-ID
// engine; recovery turns it into advice to open the directory with Open.
var errKeyedOnDense = errors.New("keyed record on a dense-ID engine")

// storeApply publishes one batch through the store, appending its WAL
// record first when durability is on (log-before-publish: the record hits
// the log — and, under FsyncAlways, stable storage — before any reader can
// observe the version). On a degraded log the append is a cheap error
// return and the apply proceeds in memory: reads keep working, Stats
// surfaces ErrDurabilityDegraded. Callers hold e.closeMu.RLock with
// applyble true, exactly like the direct store.Apply they replace.
func (e *Engine) storeApply(up batch.Update) *snapshot.Version {
	d := e.durable()
	if d == nil {
		before := e.store.Current().G.N()
		e.met.notePublished(before, up.Universe(before))
		_, next := e.store.Apply(up)
		return next
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := e.store.Current()
	nAfter := up.Universe(cur.G.N())
	rec := wal.Record{Seq: cur.Seq + 1, N: uint64(nAfter), Del: up.Del, Ins: up.Ins}
	if e.keys != nil && nAfter > d.keysLogged {
		// First durable mention of ids [keysLogged, nAfter): log their keys
		// with the record, so replay re-interns them in the same dense order.
		rec.KeyBase = uint32(d.keysLogged)
		rec.Keys = e.keys.KeysRange(d.keysLogged, nAfter)
		d.keysLogged = nAfter
	}
	// Degradation is deliberate fire-and-continue: the error is sticky in
	// the log and surfaced via Stats; wedging the apply path would turn a
	// disk failure into an outage.
	t0 := time.Now()
	_ = d.log.Append(&rec)
	e.met.walAppend.ObserveSince(t0)
	e.met.notePublished(cur.G.N(), nAfter)
	_, next := e.store.Apply(up)
	return next
}

// maybeCheckpointLocked runs at every rank publication (caller holds e.mu):
// it clears the recovering flag once ranks catch the replayed tip, and
// kicks off a background checkpoint when the cadence is due. The checkpoint
// snapshots only immutable data (the view's CSR, rank vector, and the
// append-only key prefix), so it runs without any engine lock.
func (e *Engine) maybeCheckpointLocked(v *View) {
	d := e.durable()
	if d.recovering.Load() && v.seq >= d.recoverTip {
		d.recovering.Store(false)
	}
	if v.seq-d.lastCkpt.Load() < d.ckptEvery || d.log.Degraded() {
		return
	}
	if !d.ckptBusy.CompareAndSwap(false, true) {
		return // previous checkpoint still writing; next publication retries
	}
	st := e.checkpointState(v)
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		defer d.ckptBusy.Store(false)
		t0 := time.Now()
		if d.log.WriteCheckpoint(st) == nil {
			e.met.ckptSeconds.ObserveSince(t0)
			d.noteCheckpoint(st.Seq)
		}
	}()
}

// checkpointState captures the published view v as a checkpoint: graph and
// ranks at v's version, plus the key prefix covering its universe (ids are
// dense in first-mention order, so the first N keys are exactly the keys
// that existed at a version with N vertices).
func (e *Engine) checkpointState(v *View) *wal.State {
	st := &wal.State{Seq: v.seq, Graph: v.ver.G, Ranks: v.ranks}
	if e.keys != nil {
		st.Keys = e.keys.KeysRange(0, len(v.ranks))
	}
	return st
}

// noteCheckpoint records a durable checkpoint's seq, keeping the gauge
// monotone under a racing manual Checkpoint and background writer.
func (d *durability) noteCheckpoint(seq uint64) {
	for {
		cur := d.lastCkpt.Load()
		if seq <= cur || d.lastCkpt.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Checkpoint forces a durable checkpoint of the latest published rank
// version (or of the current graph version, rank-less, before the first
// Rank) and prunes the log behind it. The periodic cadence
// (WithCheckpointEvery) makes this unnecessary in steady state; it exists
// for tests, for pre-shutdown compaction, and for callers that just applied
// a bulk load they do not want to replay ever again.
func (e *Engine) Checkpoint() error {
	d := e.durable()
	if d == nil {
		return fmt.Errorf("dfpr: engine has no durability directory (WithDurability)")
	}
	var st *wal.State
	if v := e.latest.Load(); v != nil {
		st = e.checkpointState(v)
	} else {
		cur := e.store.Current()
		st = &wal.State{Seq: cur.Seq, Graph: cur.G}
		if e.keys != nil {
			st.Keys = e.keys.KeysRange(0, cur.G.N())
		}
	}
	t0 := time.Now()
	if err := d.log.WriteCheckpoint(st); err != nil {
		return fmt.Errorf("%w: %w", ErrDurabilityDegraded, err)
	}
	e.met.ckptSeconds.ObserveSince(t0)
	d.noteCheckpoint(st.Seq)
	return nil
}

// Recovering reports whether the engine is still catching up on state
// replayed at construction: true from a warm restart that found WAL records
// past the checkpoint until a Rank brings published ranks up to the
// replayed tip. Reads serve the checkpointed version meanwhile; the serve
// layer rejects writes with 503 while this holds.
func (e *Engine) Recovering() bool {
	d := e.durable()
	return d != nil && d.recovering.Load()
}
