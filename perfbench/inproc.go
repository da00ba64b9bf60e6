package main

import (
	"context"
	"time"

	"dfpr"
)

// frontierDiv sets the frontier tolerance τ_f = τ/frontierDiv (see doc.go).
const frontierDiv = 10

// engineOptions is the engine configuration every workload shares: the
// paper's DFLF at tolerance tau and τ_f = tau/frontierDiv, two workers, ranks
// refreshed after every round, 64 retained versions.
func engineOptions(tau float64) []dfpr.Option {
	return []dfpr.Option{
		dfpr.WithAlgorithm(dfpr.DFLF),
		dfpr.WithThreads(2),
		dfpr.WithTolerance(tau),
		dfpr.WithFrontierTolerance(tau / frontierDiv),
		dfpr.WithRankPolicy(dfpr.RankImmediate()),
		dfpr.WithHistory(64),
	}
}

// inproc drives a dense engine through its Go API in this process.
type inproc struct {
	r   *run
	eng *dfpr.Engine
}

// setupInproc builds the engine and converges its first ranked View.
func setupInproc(ctx context.Context, r *run) (system, error) {
	eng, err := dfpr.New(r.in.n, r.in.edges, engineOptions(r.tau)...)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Rank(ctx); err != nil {
		eng.Close()
		return nil, err
	}
	if _, err := eng.View(); err != nil {
		eng.Close()
		return nil, err
	}
	return &inproc{r: r, eng: eng}, nil
}

func (s *inproc) writer() *dfpr.Engine   { return s.eng }
func (s *inproc) readSide() *dfpr.Engine { return s.eng }
func (s *inproc) close() error           { return s.eng.Close() }

func (s *inproc) submit(ctx context.Context, w write, ot *opTrace) (waitFn, error) {
	t0 := time.Now()
	tk, err := s.eng.Submit(ctx, w.del, w.ins)
	t1 := time.Now()
	if ot != nil {
		ot.record("dfpr.Submit", t0, t1)
		s.r.noteQueue(s.eng.Stats().QueuedEdits)
	}
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (uint64, error) {
		seq, err := tk.Wait(ctx)
		ot.record("dfpr.Ticket.Wait", t1, time.Now())
		return seq, err
	}, nil
}

func (s *inproc) enqueue(ctx context.Context, w write, ot *opTrace) (waitFn, error) {
	return s.submit(ctx, w, ot)
}

func (s *inproc) read(_ context.Context, rd read, ot *opTrace) error {
	t0 := time.Now()
	v, err := s.eng.View()
	if err != nil {
		return err
	}
	t1 := time.Now()
	if rd.topk {
		if len(v.TopK(10)) == 0 {
			return errEmptyTopK
		}
	} else if _, ok := v.ScoreOf(rd.u); !ok {
		return errUnknownVertex
	}
	if ot != nil {
		t2 := time.Now()
		ot.record("dfpr.View", t0, t1)
		if rd.topk {
			ot.record("view.TopK", t1, t2)
		} else {
			ot.record("view.ScoreOf", t1, t2)
		}
	}
	return nil
}
