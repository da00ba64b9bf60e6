package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"dfpr"
	"dfpr/serve"
)

// served drives a keyed durable writer behind serve.Server on loopback, with
// one StartReplica follower streaming its /v1/feed behind a second server.
// Writes go to the writer; reads alternate between the two servers.
type served struct {
	r      *run
	dir    string
	wr     *dfpr.Engine
	rep    *dfpr.Replica
	srv    *serve.Server
	rsrv   *serve.Server
	hs     *http.Server // listeners of srv and rsrv
	rhs    *http.Server
	wURL   string
	rURL   string
	client *http.Client
	done   sync.WaitGroup // the two Serve goroutines
}

// setupServed loads the keyed graph into a fresh durable writer, converges
// it, checkpoints it so a replica bootstraps at the loaded version, starts
// both listeners and waits until the replica serves ranks at the writer's
// version.
func setupServed(ctx context.Context, r *run) (sys system, err error) {
	dir, err := os.MkdirTemp(r.out, "wal-")
	if err != nil {
		return nil, err
	}
	s := &served{r: r, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	opts := engineOptions(r.tau)
	if s.wr, err = dfpr.Open(append(opts, dfpr.WithDurability(dir))...); err != nil {
		return nil, err
	}
	if _, err = s.wr.ApplyKeyed(ctx, nil, r.in.kedges); err != nil {
		return nil, err
	}
	if _, err = s.wr.Rank(ctx); err != nil {
		return nil, err
	}
	if _, err = s.wr.View(); err != nil {
		return nil, err
	}
	if err = s.wr.Checkpoint(); err != nil {
		return nil, err
	}
	if s.srv, s.hs, s.wURL, err = s.listen(s.wr); err != nil {
		return nil, err
	}
	if s.rep, err = dfpr.StartReplica(ctx, s.wURL, opts...); err != nil {
		return nil, err
	}
	if err = s.rep.Engine().WaitRanked(ctx, s.wr.Version()); err != nil {
		return nil, err
	}
	if s.rsrv, s.rhs, s.rURL, err = s.listen(s.rep.Engine()); err != nil {
		return nil, err
	}
	// One connection per issuing goroutine and server: the writer takes
	// writes and half the reads, the replica the other half.
	s.client = &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	return s, nil
}

// listen serves eng's /v1 surface on a loopback port. The http.Server is
// the benchmark's own, so it exists before its goroutine starts and close can
// always stop it; serve.Server.Shutdown then only drains the engine.
func (s *served) listen(eng *dfpr.Engine) (*serve.Server, *http.Server, string, error) {
	srv, err := serve.New(eng)
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return srv, hs, "http://" + ln.Addr().String(), nil
}

func (s *served) writer() *dfpr.Engine   { return s.wr }
func (s *served) readSide() *dfpr.Engine { return s.rep.Engine() }

// close tears down in dependency order: replica (which streams from the
// writer's server), servers, writer, then the log directory.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var errs []error
	if s.rhs != nil {
		errs = append(errs, s.rhs.Shutdown(ctx), s.rsrv.Shutdown(ctx))
	}
	if s.rep != nil {
		errs = append(errs, s.rep.Close())
	}
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx), s.srv.Shutdown(ctx))
	}
	s.done.Wait()
	if s.wr != nil {
		errs = append(errs, s.wr.Close())
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

type applyEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

type applyBody struct {
	Del []applyEdge `json:"del"`
	Ins []applyEdge `json:"ins"`
}

func applyEdges(es []dfpr.KeyEdge) []applyEdge {
	out := make([]applyEdge, len(es))
	for i, e := range es {
		out[i] = applyEdge{From: e.From, To: e.To}
	}
	return out
}

// submit POSTs the write; the 202 names the version that holds it.
func (s *served) submit(ctx context.Context, w write, ot *opTrace) (waitFn, error) {
	body, err := json.Marshal(applyBody{Del: applyEdges(w.kdel), Ins: applyEdges(w.kins)})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.wURL+"/v1/apply", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		// The request may have reached the server before it failed.
		return nil, fmt.Errorf("%w: apply: %w", errUncertain, err)
	}
	var out struct {
		Version uint64 `json:"version"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if ot != nil {
		ot.record("serve.apply", t0, time.Now())
		s.r.noteQueue(s.wr.Stats().QueuedEdits)
		s.r.noteReplLag(s.rep.Engine().Stats().Replication.LagRecords)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		s.r.rejected.Add(1)
		if resp.StatusCode >= 500 {
			// A 5xx can come after the batch was queued (its wait on the
			// round timed out server-side).
			return nil, fmt.Errorf("%w: apply: HTTP %d", errUncertain, resp.StatusCode)
		}
		return nil, fmt.Errorf("apply: HTTP %d", resp.StatusCode)
	}
	if derr != nil {
		return nil, fmt.Errorf("apply: decode: %w", derr)
	}
	return func(context.Context) (uint64, error) { return out.Version, nil }, nil
}

// enqueue submits the write by key to the writer engine, below its HTTP
// handler.
func (s *served) enqueue(ctx context.Context, w write, ot *opTrace) (waitFn, error) {
	t0 := time.Now()
	tk, err := s.wr.SubmitKeyed(ctx, w.kdel, w.kins)
	ot.record("dfpr.Submit", t0, time.Now())
	if err != nil {
		return nil, err
	}
	return tk.Wait, nil
}

// read GETs a keyed score or the top-10 from the writer or the replica.
func (s *served) read(ctx context.Context, rd read, ot *opTrace) error {
	base := s.wURL
	if rd.replica {
		base = s.rURL
	}
	url := base + "/v1/rank/" + vkey(rd.u)
	if rd.topk {
		url = base + "/v1/topk?k=10"
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ot.record("serve.read", t0, time.Now())
	if resp.StatusCode != http.StatusOK {
		s.r.rejected.Add(1)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return cerr
}

// resolve maps a write's keys to the writer's dense ids.
func (s *served) resolve(w write, ot *opTrace) (del, ins []dfpr.Edge, err error) {
	resolve := func(key string) (uint32, error) {
		t0 := time.Now()
		id, ok := s.wr.Resolve(key)
		ot.record("keymap.Resolve", t0, time.Now())
		if !ok {
			return 0, fmt.Errorf("key %s was never interned", key)
		}
		return id, nil
	}
	conv := func(es []dfpr.KeyEdge) ([]dfpr.Edge, error) {
		out := make([]dfpr.Edge, len(es))
		for i, e := range es {
			var err error
			if out[i].U, err = resolve(e.From); err != nil {
				return nil, err
			}
			if out[i].V, err = resolve(e.To); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if del, err = conv(w.kdel); err != nil {
		return nil, nil, err
	}
	ins, err = conv(w.kins)
	return del, ins, err
}
