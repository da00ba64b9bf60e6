package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfpr"
	"dfpr/internal/telemetry"
)

// opTimeout bounds every wait on one operation; a timed-out operation
// counts as failed.
const opTimeout = 30 * time.Second

var (
	errEmptyTopK     = errors.New("empty top-k")
	errUnknownVertex = errors.New("vertex not in view")
	// errUncertain marks a write that failed after the system may already
	// have queued it, so whether and where the engine applied it is unknown.
	errUncertain = errors.New("write outcome unknown")
)

// waitFn blocks until a submitted write is published and returns its
// version.
type waitFn func(context.Context) (uint64, error)

// system is the thing under test as the benchmark sees it: where writes and
// reads go, and which engines to wait on.
type system interface {
	writer() *dfpr.Engine
	// readSide is the engine followers read from: the replica when there
	// is one, otherwise the writer itself.
	readSide() *dfpr.Engine
	// submit and read record their spans into ot; nil records none.
	submit(ctx context.Context, w write, ot *opTrace) (waitFn, error)
	// enqueue hands a write to the writer engine's Submit directly, for the
	// catch-up backlogs: a served POST returns only once its round is
	// published, so POSTs sent one after another never queue up.
	enqueue(ctx context.Context, w write, ot *opTrace) (waitFn, error)
	read(ctx context.Context, rd read, ot *opTrace) error
	close() error
}

// latencies are the end-to-end samples of one set of operations.
type latencies struct {
	visible, ranked, replica samples // ms from due
	reads                    samples // µs from due
}

// phase holds the end-to-end samples of one stretch of the open loop.
type phase struct {
	latencies           // the operations run untraced
	traced    latencies // traced runs: the operations run traced, every other one
	late      samples   // ms the generator ran behind schedule

	// Sources of the per-layer counters, read at the phase's ends.
	stats0, stats1 dfpr.Stats
	met0, met1     telemetry.Snapshot
	rmet0, rmet1   telemetry.Snapshot // read-side engine
	mem0, mem1     runtime.MemStats
	cpu0, cpu1     time.Duration
	wall           time.Duration
	keys0, keys1   int
}

// run is one benchmark run of one workload.
type run struct {
	w      *workload
	in     *inputs
	traced bool
	out    string // directory for this run's files
	tau    float64
	tr     *tracer

	setup   []float64 // s
	catchup []float64 // edits/s
	heapMB  float64

	attempted, failed atomic.Int64
	rejected          atomic.Int64 // HTTP non-2xx
	uncertain         atomic.Int64 // writes failed with errUncertain

	// seqs[i] is the version write i landed in (0 if it never reached the
	// engine); subOrder lists write indices in submission order; obs[i] is
	// write i's observed pipeline time (Ticket.Wait or POST, plus the
	// WaitRanked after it).
	seqs     []uint64
	subOrder []int
	obs      []time.Duration
	visAt    []time.Duration // write i: due → visible
	repAt    []time.Duration // write i: due → replica visible

	mu       sync.Mutex
	queueMax int
	lagMax   uint64
	// unseen holds the writes the engine accepted whose version no wait saw
	// in time; after the drain each is waited for again, so the replay holds
	// every write the engine holds.
	unseen   map[int]waitFn
	rankSeqs map[uint64]bool // rank versions the writer published (traced)
	final    finalState
	start    startGraph
	measured *phase
	layers   map[string]float64
	gateLInf []float64
}

type finalState struct {
	seq   uint64
	n, m  int
	ranks [][]float64 // writer, then the replica when there is one
}

func (r *run) noteQueue(q int) {
	r.mu.Lock()
	r.queueMax = max(r.queueMax, q)
	r.mu.Unlock()
}

func (r *run) noteReplLag(l uint64) {
	r.mu.Lock()
	r.lagMax = max(r.lagMax, l)
	r.mu.Unlock()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// build runs setup setupReps times, each built anew with the previous
// system closed, and keeps the last system.
func (r *run) build(ctx context.Context) (system, error) {
	setup := setupInproc
	if r.w.served {
		setup = setupServed
	}
	var sys system
	for range setupReps {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		sys = s
	}
	return sys, nil
}

// steady runs the open loop over writes [w0, w1) and reads [r0, r1) for
// the time the schedule takes. A traced phase traces every other operation,
// so traced and untraced ones share the same engine state and
// trace.overhead_frac compares like with like.
func (r *run) steady(ctx context.Context, sys system, w0, w1, r0, r1 int, traced bool) *phase {
	p := &phase{}
	wr := sys.writer()
	// Every phase starts from a collected heap, so where the collector's
	// cycles fall within it does not depend on what ran before.
	runtime.GC()
	p.stats0, p.met0, p.rmet0 = wr.Stats(), scrape(wr.Metrics()), scrape(sys.readSide().Metrics())
	p.keys0 = wr.Keys()
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	t0 := time.Now()
	// Both streams start together on a fresh schedule a little ahead, so
	// the first calls are not late by the set-up of the loops themselves.
	start := time.Now().Add(20 * time.Millisecond)
	var waiters, loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		period := time.Duration(float64(time.Second) / r.w.writeRate)
		openLoop(ctx, start, period, w1-w0, &p.late, func(i int, due time.Time) {
			op := w0 + i
			r.issueWrite(ctx, sys, p, op, due, traced, &waiters)
		})
	}()
	go func() {
		defer loops.Done()
		period := time.Duration(float64(time.Second) / r.w.readRate)
		openLoop(ctx, start, period, r1-r0, &p.late, func(i int, due time.Time) {
			op := r0 + i
			r.attempted.Add(1)
			var ot *opTrace
			if traced && op%2 == 1 {
				// Read spans take ids after every write's.
				ot = &opTrace{tr: r.tr, op: len(r.in.writes) + op}
			}
			octx, cancel := context.WithTimeout(ctx, opTimeout)
			err := sys.read(octx, r.in.reads[op], ot)
			cancel()
			if err != nil {
				r.failed.Add(1)
				return
			}
			p.of(ot).reads.add(us(time.Since(due)))
		})
	}()
	loops.Wait()
	waiters.Wait()
	p.wall = time.Since(t0)
	p.cpu1 = cpuTime()
	runtime.ReadMemStats(&p.mem1)
	p.stats1, p.met1, p.rmet1 = wr.Stats(), scrape(wr.Metrics()), scrape(sys.readSide().Metrics())
	p.keys1 = wr.Keys()
	return p
}

// of returns the sample set of a traced (ot != nil) or untraced operation.
func (p *phase) of(ot *opTrace) *latencies {
	if ot != nil {
		return &p.traced
	}
	return &p.latencies
}

// failWrite counts a write that failed; one that may have reached the
// engine is counted as uncertain too.
func (r *run) failWrite(err error) {
	r.failed.Add(1)
	if errors.Is(err, errUncertain) {
		r.uncertain.Add(1)
	}
}

// unseenWrite notes an accepted write whose version a wait did not see.
func (r *run) unseenWrite(op int, wait waitFn) {
	r.mu.Lock()
	r.unseen[op] = wait
	r.mu.Unlock()
}

// resolveUnseen learns the version of every write in r.unseen. It runs
// after the drain, when every accepted write has been published.
func (r *run) resolveUnseen(ctx context.Context) error {
	for op, wait := range r.unseen {
		wctx, cancel := context.WithTimeout(ctx, opTimeout)
		seq, err := wait(wctx)
		cancel()
		if err != nil {
			return fmt.Errorf("write %d was accepted but not published after the drain: %w", op, err)
		}
		r.seqs[op] = seq
	}
	return nil
}

// issueWrite submits write op and starts the goroutine that observes it
// becoming visible, ranked and replicated, each timed from due.
func (r *run) issueWrite(ctx context.Context, sys system, p *phase, op int, due time.Time, traced bool, waiters *sync.WaitGroup) {
	r.attempted.Add(1)
	var ot *opTrace
	if traced && op%2 == 1 {
		// One root span per write, from due to ranked, parents its calls.
		ot = &opTrace{tr: r.tr, op: op, parent: r.tr.reserve()}
	}
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	issued := time.Now()
	wait, err := sys.submit(octx, r.in.writes[op], ot)
	r.mu.Lock()
	r.subOrder = append(r.subOrder, op)
	r.mu.Unlock()
	if err != nil {
		cancel()
		r.failWrite(err)
		return
	}
	waiters.Add(1)
	go func() {
		defer waiters.Done()
		defer cancel()
		if err := r.observe(octx, sys, p, op, due, issued, wait, ot); err != nil {
			r.failed.Add(1)
		}
	}()
}

// observe records write op's version as soon as it is known, so a write
// that is slow to rank or to replicate still reaches the replay; it is only
// left out of the latency samples.
func (r *run) observe(ctx context.Context, sys system, p *phase, op int, due, issued time.Time, wait waitFn, ot *opTrace) error {
	seq, err := wait(ctx)
	if err != nil {
		r.unseenWrite(op, wait)
		return err
	}
	r.seqs[op] = seq
	wr := sys.writer()
	if err := wr.WaitVersion(ctx, seq); err != nil {
		return err
	}
	vis := time.Now()
	var repErr error
	var repAt time.Time
	var g sync.WaitGroup
	g.Add(1)
	go func() {
		defer g.Done()
		repErr = sys.readSide().WaitVersion(ctx, seq)
		repAt = time.Now()
	}()
	rankErr := wr.WaitRanked(ctx, seq)
	ranked := time.Now()
	g.Wait()
	if rankErr != nil {
		return rankErr
	}
	if repErr != nil {
		return repErr
	}
	r.visAt[op] = vis.Sub(due)
	r.repAt[op] = repAt.Sub(due)
	r.obs[op] = ranked.Sub(issued)
	lat := p.of(ot)
	lat.visible.add(ms(vis.Sub(due)))
	lat.ranked.add(ms(ranked.Sub(due)))
	lat.replica.add(ms(repAt.Sub(due)))
	if ot != nil {
		ot.record("dfpr.WaitRanked", vis, ranked)
		ot.record("readside.WaitVersion", vis, repAt)
		r.tr.recordAs(ot.parent, "write", op, 0, due, ranked)
	}
	return nil
}

// catchUp drains the workload's catchupReps fixed backlogs, each on an idle
// pipeline.
func (r *run) catchUp(ctx context.Context, sys system, traced bool) error {
	for rep := range r.w.catchupReps {
		if err := r.settle(ctx, sys); err != nil {
			return err
		}
		first := r.in.nSteady + rep*r.w.backlog
		rate, err := r.backlog(ctx, sys, first, first+r.w.backlog, traced)
		if err != nil {
			return fmt.Errorf("catch-up: %w", err)
		}
		r.catchup = append(r.catchup, rate)
	}
	return nil
}

// backlog enqueues writes [w0, w1) and returns edits per second from the
// first submit to the writer's WaitRanked on the last write. The first write is
// published before the rest are submitted back to back, so they queue
// behind its refresh: the rounds a backlog splits into do not depend on how
// fast the ingest loop woke up.
func (r *run) backlog(ctx context.Context, sys system, w0, w1 int, traced bool) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	edits := 0
	var last uint64
	wait := func(op int, fn waitFn) error {
		seq, err := fn(ctx)
		if err != nil {
			return err
		}
		r.seqs[op] = seq
		last = max(last, seq)
		return nil
	}
	pending := map[int]waitFn{}
	t0 := time.Now()
	for op := w0; op < w1; op++ {
		r.attempted.Add(1)
		var ot *opTrace
		if traced {
			ot = &opTrace{tr: r.tr, op: op}
		}
		fn, err := sys.enqueue(ctx, r.in.writes[op], ot)
		r.subOrder = append(r.subOrder, op)
		if err != nil {
			r.failWrite(err)
			continue
		}
		edits += r.in.writes[op].size()
		if op == w0 {
			if err := wait(op, fn); err != nil {
				return 0, err
			}
			continue
		}
		pending[op] = fn
	}
	for op, fn := range pending {
		if err := wait(op, fn); err != nil {
			r.failed.Add(1)
			r.unseenWrite(op, fn)
		}
	}
	if err := sys.writer().WaitRanked(ctx, last); err != nil {
		return 0, err
	}
	return float64(edits) / time.Since(t0).Seconds(), nil
}

// execute runs setup, the steady phase, the catch-up and the final drain,
// then closes the system, replays the rounds and checks the ranks. ok and
// why report the correctness gate; err any failure to run at all.
func (r *run) execute(ctx context.Context) (ok bool, why string, err error) {
	total := len(r.in.writes)
	r.seqs = make([]uint64, total)
	r.obs = make([]time.Duration, total)
	r.visAt = make([]time.Duration, total)
	r.repAt = make([]time.Duration, total)
	r.unseen = map[int]waitFn{}
	sys, err := r.build(ctx)
	if err != nil {
		return false, "", err
	}
	rounds, err := r.drive(ctx, sys)
	if cerr := sys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return false, "", err
	}
	if n := r.uncertain.Load(); n > 0 {
		return false, "", fmt.Errorf("%d writes failed after the server may have queued them; "+
			"their versions are unknown, so the replay cannot rebuild the engine's graph", n)
	}
	g, err := r.replay(ctx, rounds)
	if err != nil {
		return false, "", err
	}
	ok, why = r.gate(g)
	return ok, why, nil
}

// drive runs the measured phases on a built system and returns the rounds
// its writes formed.
func (r *run) drive(ctx context.Context, sys system) ([]round, error) {
	nw, nr := r.in.nSteady, len(r.in.reads)
	if !r.traced {
		r.measured = r.steady(ctx, sys, 0, nw, 0, nr, false)
		r.heapMB = liveHeap()
		if err := r.catchUp(ctx, sys, false); err != nil {
			return nil, err
		}
		if err := r.drain(ctx, sys); err != nil {
			return nil, err
		}
	} else {
		stop, err := r.watchRanks(sys.writer())
		if err != nil {
			return nil, err
		}
		defer stop()
		r.measured = r.steady(ctx, sys, 0, nw, 0, nr, true)
		if err := r.catchUp(ctx, sys, true); err != nil {
			return nil, err
		}
		if err := r.drain(ctx, sys); err != nil {
			return nil, err
		}
		if err := stop(); err != nil {
			return nil, err
		}
	}
	if err := r.resolveUnseen(ctx); err != nil {
		return nil, err
	}
	return r.rounds(sys)
}

// watchRanks records in r.rankSeqs every rank version wr publishes, so the
// replay refreshes where the engine did. It must start on an idle pipeline.
// stop ends the watch and checks that it saw one version per refresh the
// engine counted.
func (r *run) watchRanks(wr *dfpr.Engine) (stop func() error, err error) {
	v, err := wr.View()
	if err != nil {
		return nil, err
	}
	st0 := wr.Stats()
	sub := wr.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := v.Seq()
		for u := range sub.Updates() {
			// The stream conflates: a version it skipped is still among
			// the engine's retained views.
			r.mu.Lock()
			for s := prev + 1; s < u.Seq; s++ {
				if _, err := wr.ViewAt(s); err == nil {
					r.rankSeqs[s] = true
				}
			}
			r.rankSeqs[u.Seq] = true
			r.mu.Unlock()
			prev = u.Seq
		}
	}()
	return func() error {
		sub.Close()
		<-done
		st1 := wr.Stats()
		refreshes := st1.Refreshes + st1.Rebuilds - st0.Refreshes - st0.Rebuilds
		if len(r.rankSeqs) != refreshes {
			return fmt.Errorf("saw %d published rank versions, the engine counted %d refreshes", len(r.rankSeqs), refreshes)
		}
		return nil
	}, nil
}

// settle flushes the writer and waits until the read side has ranked the
// writer's version.
func (r *run) settle(ctx context.Context, sys system) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	wr := sys.writer()
	if err := wr.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return sys.readSide().WaitRanked(ctx, wr.Version())
}

// drain settles the pipeline and captures the final state the gate checks.
func (r *run) drain(ctx context.Context, sys system) error {
	if err := r.settle(ctx, sys); err != nil {
		return err
	}
	wr := sys.writer()
	v, err := wr.View()
	if err != nil {
		return err
	}
	r.final = finalState{seq: v.Seq(), n: v.N(), m: v.M(), ranks: [][]float64{ranksOf(v)}}
	if rs := sys.readSide(); rs != wr {
		rv, err := rs.View()
		if err != nil {
			return err
		}
		if rv.Seq() != v.Seq() || rv.N() != v.N() || rv.M() != v.M() {
			return fmt.Errorf("replica at version %d (n=%d m=%d), writer at %d (n=%d m=%d)",
				rv.Seq(), rv.N(), rv.M(), v.Seq(), v.N(), v.M())
		}
		r.final.ranks = append(r.final.ranks, ranksOf(rv))
	}
	return nil
}

func ranksOf(v *dfpr.View) []float64 {
	out := make([]float64, v.N())
	v.Range(func(u uint32, s float64) bool {
		out[u] = s
		return true
	})
	return out
}
