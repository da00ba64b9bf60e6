package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// openLoop calls op(i, due) for i in [0, n), the i-th call due at
// start + i·period whatever earlier calls took: a slow call delays the calls
// after it, and every latency measured from due counts that wait. late
// receives how far behind schedule each call started, in ms. It returns
// early, with the calls made so far, when ctx ends.
func openLoop(ctx context.Context, start time.Time, period time.Duration, n int, late *samples, op func(i int, due time.Time)) int {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return i
			}
		} else if ctx.Err() != nil {
			return i
		}
		late.add(ms(time.Since(due)))
		op(i, due)
	}
	return n
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op (a write's index, or for a read the number of writes
// plus its index), and a child names its parent span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// reserve returns a fresh span id (0 when off), for a parent span recorded
// after its children.
func (t *tracer) reserve() uint64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// recordAs stores span id from start to end.
func (t *tracer) recordAs(id uint64, name string, op int, parent uint64, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// opTrace carries one operation's span context into the calls it makes: the
// op id its spans share and the parent they name. A nil *opTrace records
// nothing — the untraced path.
type opTrace struct {
	tr     *tracer
	op     int
	parent uint64
}

func (t *opTrace) record(name string, start, end time.Time) {
	if t != nil {
		t.tr.recordAs(t.tr.reserve(), name, t.op, t.parent, start, end)
	}
}

// durations returns the durations of the spans named name whose op keep
// accepts (nil keeps all), in the given unit.
func (t *tracer) durations(name string, unit time.Duration, keep func(op int) bool) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &samples{}
	for _, sp := range t.spans {
		if sp.Name == name && (keep == nil || keep(sp.Op)) {
			s.v = append(s.v, float64(sp.End-sp.Start)/float64(unit))
		}
	}
	return s
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
