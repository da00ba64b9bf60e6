package dfpr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/keymap"
	"dfpr/internal/repl"
	"dfpr/internal/snapshot"
	"dfpr/internal/telemetry"
)

// Edge is a directed edge from U to V in dense vertex ids. The vertex
// universe is open: an edge naming a vertex the engine has never seen grows
// the graph to cover it (see Apply/Submit) instead of erroring. Clients that
// address entities by natural string keys use KeyEdge and the keyed API
// (Open, SubmitKeyed) instead of managing dense ids themselves.
type Edge struct {
	U, V uint32
}

// Engine is the service entry point of this module: a dynamic graph behind
// a versioned snapshot store, plus a PageRank vector kept current with the
// configured algorithm (lock-free Dynamic Frontier by default).
//
// The intended loop of a live-serving deployment runs through the ingest
// pipeline — callers never pick batch boundaries or block on a refresh:
//
//	eng, _ := dfpr.New(n, edges, dfpr.WithRankPolicy(dfpr.RankDebounce(5*time.Millisecond, 50*time.Millisecond)))
//	eng.Rank(ctx)                   // initial convergence
//	...
//	t, _ := eng.Submit(ctx, del, ins) // enqueue; coalesced off the caller's path
//	seq, _ := t.Wait(ctx)             // version the edits landed in
//	eng.WaitRanked(ctx, seq)          // ranks at least that fresh (optional)
//
// The manual path remains: Apply publishes one version per call and the
// caller drives Rank itself. Apply and Submit are safe for concurrent use
// and never block readers; Rank calls are serialised with each other.
// Readers use View (or ViewAt for retained history) for zero-copy access to
// the latest computed ranks without blocking behind a refresh, or Subscribe
// for a push stream of versioned rank updates carrying views. Every Rank
// honours its context: cancellation aborts a converging run promptly, with
// all worker goroutines joined before Rank returns ErrCanceled, and leaves
// the engine's ranks at the last completed version.
type Engine struct {
	opts  settings
	store *snapshot.Store

	// keys is the engine-owned key space (nil for dense-ID engines built
	// with New): an append-only string↔uint32 interner whose ids double as
	// vertex ids. Reads are lock-free; version pinning falls out of the
	// universe being append-only (a view resolves a key iff its id is below
	// the view's vertex count).
	keys *keymap.Map

	// mu serialises Rank (and the lazily created ranker it drives).
	mu     sync.Mutex
	ranker *snapshot.Ranker
	closed bool

	// closeMu excludes Apply from a concurrent Close without making Apply
	// wait behind Rank: writers share the read side, Close takes the write
	// side. Lock order: mu before closeMu before subMu.
	closeMu  sync.RWMutex
	applyble bool // false once closed; guarded by closeMu

	// latest is the most recently published view, read lock-free by View
	// and Behind; refreshes/rebuilds mirror the ranker's counters so Stats
	// never waits behind an in-flight Rank (it briefly takes ingestMu for
	// the queue gauge, which no slow operation ever holds).
	latest          atomic.Pointer[View]
	refreshes       atomic.Int64
	rebuilds        atomic.Int64
	sweepBlocks     atomic.Int64
	frontierScanned atomic.Int64

	// viewMu guards the ring of retained published views ViewAt serves
	// from; each entry pins its store version so version chains stay
	// reachable for Delta. Lock order: mu before viewMu before the store's
	// internal lock.
	viewMu sync.Mutex
	views  []*View // oldest first, at most opts.history entries

	// subMu guards the subscriber table. Lock order: mu before subMu.
	subMu     sync.Mutex
	subs      map[uint64]*Subscription
	nextSub   uint64
	subClosed bool

	// The ingest pipeline (ingest.go): a bounded queue drained by one
	// background loop that coalesces submissions into one merged batch per
	// round and schedules Rank per the configured policy. ingestMu guards
	// the queue and lifecycle flags and is never held across an apply or a
	// rank. Lock order: ingestMu is independent of mu (the loop takes mu via
	// Rank only after releasing ingestMu).
	ingestMu     sync.Mutex
	ingestQ      []pendingSubmit
	flushQ       []*flushReq
	ingestEdits  int  // queued, not yet drained (backpressure unit)
	ingestOn     bool // loop started (lazily, on first Submit/Flush)
	ingestClosed bool
	ingestWake   chan struct{}
	ingestStop   chan struct{}
	ingestDone   chan struct{}
	ingestCtx    context.Context
	ingestHalt   context.CancelFunc

	ingestRounds    atomic.Int64 // coalesced rounds applied
	ingestCoalesced atomic.Int64 // edits applied through the pipeline

	// dur is the durability sidecar (nil without WithDurability): the WAL
	// every published round is logged to ahead of publication, plus the
	// checkpoint machinery and recovery state. It is atomic because a
	// follower promoted to writer (cluster.go) installs it on a live engine
	// while readers inspect it concurrently. See durable.go.
	dur atomic.Pointer[durability]

	// Replication state (cluster.go). follower is true while the engine
	// applies streamed rounds instead of accepting writes — public writes
	// bounce with ErrNotWriter until promotion clears it. replStats is the
	// provider a Replica or Cluster installs for Stats().Replication;
	// replTel guards the one-time registration of its gauges. feed is the
	// lazily built WAL streaming handler of a durable engine.
	follower  atomic.Bool
	replStats atomic.Pointer[func() ReplicationStats]
	replTel   sync.Once
	feed      atomic.Pointer[repl.Feed]

	// met is the engine's telemetry (never nil): hot-path instruments the
	// write path observes lock-free, plus the registry /metrics serves. See
	// telemetry.go.
	met *engineMetrics

	// Watermarks for the completion APIs: verWM tracks published graph
	// versions (publish and applyLogged), rankWM published rank versions.
	verWM  watermark
	rankWM watermark
}

// New builds an engine over a directed graph with vertices 0..n-1 and the
// given initial edges; edges naming vertices beyond n widen the universe to
// cover them. Self-loops are added to every vertex (the paper's dead-end
// elimination, §5.1.3) and the result is sealed as version 0. No ranks are
// computed yet — the first Rank call converges them.
//
// New is the dense-ID constructor for callers that already hold compact
// vertex ids (a loaded benchmark graph, a generator). Services addressing
// entities by natural string keys start from Open instead, which owns the
// key→id compaction and needs no vertex count at all.
func New(n int, edges []Edge, opts ...Option) (*Engine, error) {
	if n < 0 {
		return nil, fmt.Errorf("dfpr: negative vertex count %d", n)
	}
	st := defaultSettings()
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	// The registry exists before the engine: the durable path wires WAL
	// hooks into it during recovery, ahead of the Engine value itself.
	st.tel = telemetry.NewRegistry()
	if st.durDir != "" {
		// Durable engines take the recovery-aware constructor: a directory
		// that already holds state supersedes n/edges entirely (the state IS
		// the graph); a fresh one is built here and seeded with checkpoint 0.
		return openDurable(n, edges, st)
	}
	return newEngine(n, edges, st)
}

// newEngine builds a non-recovered engine from resolved settings — the
// shared tail of New, Open and the durable seed path.
func newEngine(n int, edges []Edge, st settings) (*Engine, error) {
	ges := toInternal(edges)
	universe := batch.Update{Ins: ges}.Universe(n)
	if universe > st.maxN {
		return nil, fmt.Errorf("dfpr: %d vertices exceed the bound %d (WithMaxVertices): %w", universe, st.maxN, ErrTooManyVertices)
	}
	d := graph.NewDynamic(universe)
	for _, e := range ges {
		d.AddEdge(e.U, e.V)
	}
	e := &Engine{
		opts:     st,
		store:    snapshot.NewStore(d, st.history),
		subs:     make(map[uint64]*Subscription),
		applyble: true,
	}
	if st.keyed {
		e.keys = keymap.New()
	}
	e.initTelemetry(st.tel)
	e.verWM.init(0) // version 0 exists from construction
	return e, nil
}

// Open builds an empty open-universe engine with an engine-owned key space:
// no vertex count, no initial edges — vertices come into existence as
// submissions mention them, either by string key (SubmitKeyed/ApplyKeyed,
// interned append-only into dense ids) or by dense id (Submit/Apply, which
// grow the universe past any id they name). Reads resolve keys through
// Engine.Resolve / View.ScoreOfKey and translate back with KeyOf; a view
// pinned to a version only resolves keys that existed at that version.
func Open(opts ...Option) (*Engine, error) {
	// Keyedness is resolved as an option rather than patched on after New:
	// a durable Open must know the key space exists BEFORE recovery replays
	// WAL records whose keys need re-interning.
	return New(0, nil, append(append(make([]Option, 0, len(opts)+1), opts...), withKeyed())...)
}

// Apply applies one batch update — del edges removed, ins edges added — and
// publishes the resulting graph version, returning its sequence number.
// The universe is open: an edge naming a vertex beyond the current count
// grows the graph to cover it (new vertices materialise with only their
// dead-end self-loop) instead of erroring. Batches from concurrent callers
// are serialised; readers are never blocked. Ranks do not move until the
// next Rank call. The context is consulted before the (brief, incremental)
// snapshot construction starts; an already-canceled context applies nothing.
func (e *Engine) Apply(ctx context.Context, del, ins []Edge) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("dfpr: apply aborted: %w", err)
	}
	if err := e.errIfFollower(); err != nil {
		return 0, err
	}
	return e.applyInternal(batch.Update{Del: toInternal(del), Ins: toInternal(ins)})
}

// Grow publishes a version whose vertex universe covers at least n vertices
// without touching any edges: the added vertices materialise isolated, each
// holding only its dead-end self-loop (rank exactly 1/n after the next
// refresh — the paper's dead-end handling in closed form). Growing to a
// size the graph already covers still publishes a version, keeping the
// caller's sequence arithmetic simple. Edge submissions grow implicitly;
// Grow exists for pre-sizing before a bulk load. On a keyed engine the
// key space owns the id space, so Grow cannot reach past Keys() — keyed
// engines pre-size by interning.
func (e *Engine) Grow(ctx context.Context, n int) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("dfpr: grow aborted: %w", err)
	}
	if n < 0 {
		return 0, fmt.Errorf("dfpr: negative vertex count %d", n)
	}
	if err := e.errIfFollower(); err != nil {
		return 0, err
	}
	return e.applyInternal(batch.Update{N: n})
}

// errIfFollower rejects public writes on a follower engine: a replica's
// graph is the writer's WAL replayed, so local mutations would fork it.
// Callers route writes to the leader instead (the serve layer proxies them).
func (e *Engine) errIfFollower() error {
	if e.follower.Load() {
		return ErrNotWriter
	}
	return nil
}

// applyInternal bounds-checks one converted batch and publishes it — the
// shared tail of Apply, Grow and ApplyKeyed.
func (e *Engine) applyInternal(up batch.Update) (uint64, error) {
	if err := e.checkUniverse(up); err != nil {
		return 0, err
	}
	return e.publish(up)
}

// publish is the one path for rounds this engine logs itself (Apply, Grow,
// ApplyKeyed, and the ingest loop's coalesced rounds): storeApply logs the
// round ahead of making it visible, then the graph-version watermark
// advances. It takes the read side of the close exclusion, so concurrent
// publishes stay concurrent (the store serialises them itself), writers
// never wait behind Rank, and no version can be published after Close
// returns. Rounds already in a log take applyLogged instead.
func (e *Engine) publish(up batch.Update) (uint64, error) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if !e.applyble {
		return 0, ErrClosed
	}
	seq := e.storeApply(up).Seq
	e.verWM.advance(seq)
	return seq, nil
}

// checkUniverse rejects a batch that would grow the vertex universe past
// the WithMaxVertices bound — the open universe's safety valve: one edge
// naming a huge dense id must be a client error, never a graph-sized
// allocation (let alone one detonating inside the background ingest loop).
//
// On a keyed engine the universe belongs to the key space: vertex ids are
// interned in first-mention order, so a DENSE write may only name vertices
// the key space already covers. Letting it grow past the interner would
// put unkeyed vertices under ids the interner hands out later — a fresh
// key would alias an existing vertex's score and resolve on views
// published before the key existed, breaking the version-pinning contract.
func (e *Engine) checkUniverse(up batch.Update) error {
	universe := up.Universe(0)
	if universe > e.opts.maxN {
		return fmt.Errorf("dfpr: batch would grow the universe to %d vertices, beyond the bound %d (WithMaxVertices): %w",
			universe, e.opts.maxN, ErrTooManyVertices)
	}
	if e.keys != nil && universe > e.keys.Len() {
		return fmt.Errorf("dfpr: dense write names vertex %d beyond the key space (%d keys interned): keyed engines grow through keys — use SubmitKeyed/ApplyKeyed, or Resolve ids first: %w",
			universe-1, e.keys.Len(), ErrTooManyVertices)
	}
	return nil
}

func toInternal(edges []Edge) []graph.Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// Rank brings the PageRank vector up to the latest published graph version
// and returns it. The first call converges ranks statically; subsequent
// calls replay the pending batches with the configured algorithm, touching
// only frontier-sized work for the Dynamic Frontier variants, and fall back
// to one static recomputation when the engine lagged beyond the retained
// history. Successful calls that advance the version push an Update to
// every subscriber.
//
// Rank honours ctx: cancellation or deadline aborts the run in progress,
// all worker goroutines exit before Rank returns, the error satisfies
// errors.Is(err, ErrCanceled), and the engine's ranks remain at the last
// completed version. On failure (cancellation, or injected crashes /
// broken barrier with the static fallback disabled) the returned Result
// carries the failed run's diagnostics — but no rank vector — alongside
// the error; versions that completed before the failure become visible on
// the next successful Rank.
func (e *Engine) Rank(ctx context.Context) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.ranker == nil {
		rk, res, err := snapshot.NewRanker(ctx, e.store, e.opts.algo, e.opts.cfg)
		if err != nil {
			return failedResultOf(res, 0), err
		}
		e.adoptRanker(rk)
		e.syncStatsLocked()
		// The initial convergence covers every version up to the current
		// one, matching what Behind() reported before the call.
		out := resultOf(res, int(rk.Seq())+1, false)
		out.Seq = rk.Seq()
		e.publishLocked(out)
		e.met.rankSeconds.Observe(out.Elapsed.Seconds())
		return out, nil
	}
	rebuilds := e.ranker.Rebuilds
	res, advanced, err := e.ranker.Refresh(ctx)
	e.syncStatsLocked()
	if err != nil {
		// The failed run's vector may be partial (a canceled pass stops
		// mid-iteration), so it is not servable; the Result carries the
		// run's diagnostics only. Versions that completed before the
		// failure become visible on the next successful Rank.
		out := failedResultOf(res, advanced)
		out.Seq = e.ranker.Seq()
		return out, err
	}
	out := resultOf(res, advanced, e.ranker.Rebuilds > rebuilds)
	out.Seq = e.ranker.Seq()
	if advanced > 0 {
		e.publishLocked(out)
		e.met.rankSeconds.Observe(out.Elapsed.Seconds())
	} else {
		// Nothing new to publish: the engine was already current, so the
		// latest published view is exactly this result's view.
		out.View = e.latest.Load()
	}
	return out, nil
}

// adoptRanker installs rk as the engine's ranker under the configured
// fallback and span-coalescing settings — for the first convergence and
// for a ranker resumed from checkpointed ranks alike.
func (e *Engine) adoptRanker(rk *snapshot.Ranker) {
	rk.DisableFallback = e.opts.noFallback
	rk.CoalesceSpans = !e.opts.uncoalesced
	e.ranker = rk
}

// RankTrace is Rank with frontier observability for the Dynamic Frontier
// algorithms: each pending batch is replayed with a deterministic
// single-threaded traced run, and the affected-set size after every pass is
// returned alongside the result. The initial convergence must already have
// happened (call Rank once first); algorithms other than DFBB/DFLF are
// rejected.
func (e *Engine) RankTrace(ctx context.Context) (*Result, []FrontierStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, nil, ErrClosed
	}
	if e.ranker == nil {
		return nil, nil, fmt.Errorf("dfpr: RankTrace before initial Rank (no baseline to trace from)")
	}
	rebuilds := e.ranker.Rebuilds
	res, series, advanced, err := e.ranker.RefreshTrace(ctx)
	e.syncStatsLocked()
	if err != nil {
		out := failedResultOf(res, advanced)
		out.Seq = e.ranker.Seq()
		return out, nil, err
	}
	out := resultOf(res, advanced, e.ranker.Rebuilds > rebuilds)
	out.Seq = e.ranker.Seq()
	if advanced > 0 {
		e.publishLocked(out)
	} else {
		out.View = e.latest.Load()
	}
	stats := make([]FrontierStats, len(series))
	for i, s := range series {
		stats[i] = FrontierStats{Affected: s.Affected, NotConverged: s.NotConverged}
	}
	return out, stats, nil
}

// resultOf converts an internal result's diagnostics. The rank vector is
// not carried here: successful results get a zero-copy View attached at
// publication (publishLocked), failed ones stay without rank state.
func resultOf(res core.Result, advanced int, rebuilt bool) *Result {
	return &Result{
		Advanced:       advanced,
		Rebuilt:        rebuilt,
		Iterations:     res.Iterations,
		Converged:      res.Converged,
		CrashedWorkers: res.CrashedWorkers,
		Elapsed:        res.Elapsed,
		BarrierWait:    res.BarrierWait,
	}
}

// failedResultOf converts the result of a failed or canceled run: the
// diagnostics are kept, no view is attached — a run that did not complete
// may hold a mid-iteration vector that must not be served.
func failedResultOf(res core.Result, advanced int) *Result {
	return resultOf(res, advanced, false)
}

// View returns a zero-copy read handle on the latest published ranks. It
// never blocks behind an in-flight Rank (one atomic load), the returned
// view is immutable and shared by every caller of the same version, and it
// stays valid — pinned to its version — for as long as the caller holds it.
// Before the first successful Rank there are no ranks to serve and View
// returns ErrNoRanks.
func (e *Engine) View() (*View, error) {
	v := e.latest.Load()
	if v == nil {
		return nil, ErrNoRanks
	}
	return v, nil
}

// ViewAt returns the read handle for a previously published rank version
// still inside the engine's retention window (WithHistory versions of
// published ranks are kept). Only versions a Rank actually published exist:
// a Rank that advanced several graph versions at once published only the
// final one. Requests outside the window return ErrVersionEvicted; a view
// obtained earlier keeps working regardless of trimming.
func (e *Engine) ViewAt(seq uint64) (*View, error) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	for i := len(e.views) - 1; i >= 0; i-- {
		if v := e.views[i]; v.seq == seq {
			return v, nil
		}
		if e.views[i].seq < seq {
			break
		}
	}
	return nil, fmt.Errorf("dfpr: rank version %d: %w", seq, ErrVersionEvicted)
}

// Version returns the latest published graph version.
func (e *Engine) Version() uint64 { return e.store.Current().Seq }

// Behind reports how many published versions the latest computed ranks lag
// the graph. Before the first Rank it counts every version including the
// initial one.
func (e *Engine) Behind() uint64 {
	// View before store: published ranks trail the store monotonically, so
	// this order can never underflow when a concurrent Apply+Rank advances
	// both between the loads.
	p := e.latest.Load()
	seq := e.store.Current().Seq
	if p == nil {
		return seq + 1
	}
	return seq - p.seq
}

// Stats reports how the engine has kept its ranks fresh so far, and what
// the ingest pipeline has coalesced. It never blocks behind an in-flight
// Rank; counters reflect the most recently finished call.
func (e *Engine) Stats() Stats {
	e.ingestMu.Lock()
	queued := e.ingestEdits
	e.ingestMu.Unlock()
	s := Stats{
		Refreshes:      int(e.refreshes.Load()),
		Rebuilds:       int(e.rebuilds.Load()),
		QueuedEdits:    queued,
		QueueBound:     e.opts.queue,
		IngestRounds:   e.ingestRounds.Load(),
		CoalescedEdits: e.ingestCoalesced.Load(),
	}
	if d := e.durable(); d != nil {
		ls := d.log.Stats()
		s.Durability = DurabilityStats{
			Enabled:         true,
			WALSeq:          ls.Seq,
			CheckpointSeq:   ls.CheckpointSeq,
			LastFsync:       ls.LastSync,
			Recovering:      d.recovering.Load(),
			Degraded:        ls.Degraded,
			ReplayedRecords: d.replayed,
		}
		if ls.Err != nil {
			s.Durability.Err = fmt.Errorf("%w: %w", ErrDurabilityDegraded, ls.Err)
		}
	}
	if f := e.replStats.Load(); f != nil {
		s.Replication = (*f)()
	}
	return s
}

// syncStatsLocked mirrors the ranker's counters into the atomics Stats
// and the telemetry counter views read. Caller holds e.mu.
func (e *Engine) syncStatsLocked() {
	e.refreshes.Store(int64(e.ranker.Refreshes))
	e.rebuilds.Store(int64(e.ranker.Rebuilds))
	e.sweepBlocks.Store(e.ranker.SweepBlocks)
	e.frontierScanned.Store(e.ranker.FrontierScanned)
}

// SetFaultPlan replaces the fault-injection plan applied to subsequent
// runs, validating it like WithFaultPlan does. It is the chaos-testing
// control: converge cleanly, arm a plan, apply a batch, and observe how
// the configured algorithm behaves under delays or crash-stop failures.
func (e *Engine) SetFaultPlan(p FaultPlan) error {
	if p.DelayProb < 0 || p.DelayProb > 1 {
		return fmt.Errorf("dfpr: delay probability %v out of range [0, 1]", p.DelayProb)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts.cfg.Fault = p.internal()
	if e.ranker != nil {
		e.ranker.SetFault(p.internal())
	}
	return nil
}

// Close shuts the engine down: the ingest pipeline stops (an in-flight
// scheduled Rank is canceled; submissions still queued fail their tickets
// with ErrClosed — Flush first to make them durable), WaitVersion/WaitRanked
// callers are released with ErrClosed, and every subscription's channel
// closes. In-flight Rank calls finish first (cancel their contexts to hurry
// them). Close is idempotent; subsequent Rank, Apply and Submit calls return
// ErrClosed.
func (e *Engine) Close() error {
	// The ingest loop is stopped before mu is taken: the loop's scheduled
	// Rank holds mu, so stopping it afterwards would deadlock.
	e.stopIngest()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.closeMu.Lock()
	e.applyble = false
	e.closeMu.Unlock()
	e.verWM.close()
	e.rankWM.close()
	e.subMu.Lock()
	e.subClosed = true
	for id, sub := range e.subs {
		delete(e.subs, id)
		close(sub.ch)
	}
	e.subMu.Unlock()
	if d := e.durable(); d != nil {
		// Durable teardown: wait out an in-flight background checkpoint,
		// then flush and close the log — Close is the last fsync barrier, so
		// everything applied before it survives a subsequent crash. The
		// log's sticky degradation cause (if any) is the return value.
		d.ckptWG.Wait()
		if err := d.log.Close(); err != nil {
			return fmt.Errorf("%w: %w", ErrDurabilityDegraded, err)
		}
	}
	return nil
}
