package dfpr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// feedMux mounts an engine provider's feed (and a minimal healthz for peer
// polling) the way the serve layer does: re-resolved per request, so a
// promoted replica starts feeding without a remount.
func feedMux(eng func() *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/feed", func(w http.ResponseWriter, r *http.Request) {
		e := eng()
		if e == nil {
			http.Error(w, "no engine yet", http.StatusServiceUnavailable)
			return
		}
		h := e.Feed()
		if h == nil {
			http.Error(w, "not the writer", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		e := eng()
		role := "writer"
		if e != nil && e.follower.Load() {
			role = "replica"
		}
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "ready": true, "role": role})
	})
	return mux
}

// rankDiff returns the L∞ distance between two engines' latest views.
func rankDiff(t *testing.T, a, b *Engine) float64 {
	t.Helper()
	va, err := a.View()
	if err != nil {
		t.Fatalf("writer view: %v", err)
	}
	vb, err := b.View()
	if err != nil {
		t.Fatalf("replica view: %v", err)
	}
	if va.Seq() != vb.Seq() || va.N() != vb.N() {
		t.Fatalf("views disagree: writer seq=%d n=%d, replica seq=%d n=%d", va.Seq(), va.N(), vb.Seq(), vb.N())
	}
	var linf float64
	for u := uint32(0); int(u) < va.N(); u++ {
		sa, _ := va.ScoreOf(u)
		sb, _ := vb.ScoreOf(u)
		if d := math.Abs(sa - sb); d > linf {
			linf = d
		}
	}
	return linf
}

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaFollowsWriter(t *testing.T) {
	ctx := context.Background()
	writer, err := New(8, ringEdges(8), WithDurability(t.TempDir()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer writer.Close()
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("writer rank: %v", err)
	}
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()

	rep, err := StartReplica(ctx, srv.URL)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer rep.Close()
	eng := rep.Engine()

	// The bootstrap alone (no writes yet) must already converge the replica
	// to the writer's seeded graph.
	waitFor(t, "bootstrap ranks", 10*time.Second, func() bool {
		_, err := eng.View()
		return err == nil
	})

	// A follower bounces every public write with ErrNotWriter — including
	// the keyed forms' interning, which must not grow the key space.
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: 5}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Apply = %v, want ErrNotWriter", err)
	}
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 5}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Submit = %v, want ErrNotWriter", err)
	}
	if _, err := eng.Grow(ctx, 99); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Grow = %v, want ErrNotWriter", err)
	}

	// Writes stream across and the replica's incremental refresh matches
	// the writer's bit-for-bit within L∞ ≤ 1e-12.
	var seq uint64
	for i := 0; i < 5; i++ {
		seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32((i + 3) % 8)}, {U: uint32(7 - i), V: uint32(i)}})
		if err != nil {
			t.Fatalf("writer apply: %v", err)
		}
		if _, err := writer.Rank(ctx); err != nil {
			t.Fatalf("writer rank: %v", err)
		}
	}
	waitFor(t, "replica catch-up", 10*time.Second, func() bool {
		v, err := eng.View()
		return err == nil && v.Seq() == seq
	})
	if d := rankDiff(t, writer, eng); d > 1e-12 {
		t.Fatalf("replica ranks diverge: L∞ = %g", d)
	}

	rs := eng.Stats().Replication
	if !rs.Enabled || rs.Role != "replica" || rs.AppliedSeq != seq || rs.LagRecords != 0 {
		t.Fatalf("replica stats = %+v", rs)
	}
	ws := writer.Feed()
	if ws == nil {
		t.Fatal("durable writer returned a nil feed")
	}
}

func TestReplicaKeyedFollowsWriter(t *testing.T) {
	ctx := context.Background()
	writer, err := Open(WithDurability(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer writer.Close()
	if _, err := writer.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}, {From: "b", To: "c"}}); err != nil {
		t.Fatalf("ApplyKeyed: %v", err)
	}
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("rank: %v", err)
	}
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()

	rep, err := StartReplica(ctx, srv.URL)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer rep.Close()
	eng := rep.Engine()
	if !eng.Keyed() {
		t.Fatal("keyed flavor lost across the feed handshake")
	}
	seq, err := writer.ApplyKeyed(ctx, nil, []KeyEdge{{From: "c", To: "d"}, {From: "d", To: "a"}})
	if err != nil {
		t.Fatalf("ApplyKeyed: %v", err)
	}
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("rank: %v", err)
	}
	waitFor(t, "keyed replica catch-up", 10*time.Second, func() bool {
		v, err := eng.View()
		return err == nil && v.Seq() == seq
	})
	// Streamed records carried the key log: the replica resolves by key.
	v, err := eng.View()
	if err != nil {
		t.Fatalf("replica view: %v", err)
	}
	for _, k := range []Key{"a", "b", "c", "d"} {
		if _, ok := v.ScoreOfKey(k); !ok {
			t.Fatalf("replica cannot resolve key %q", k)
		}
	}
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "x", To: "y"}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica ApplyKeyed = %v, want ErrNotWriter", err)
	}
	if eng.Keys() != 4 {
		t.Fatalf("rejected keyed write grew the key space to %d", eng.Keys())
	}
}

// clusterNode is one in-process cluster member: its serve stub and its
// membership handle.
type clusterNode struct {
	srv *httptest.Server
	// c is published by the test goroutine once the node joins and read by
	// the serve stub's handler goroutines.
	c atomic.Pointer[Cluster]
}

func TestClusterElectionAndFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()

	// Three serve stubs exist before any node joins so every SelfURL is
	// known up front (static membership).
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		n := &clusterNode{}
		n.srv = httptest.NewServer(feedMux(func() *Engine {
			if c := n.c.Load(); c != nil {
				return c.Engine()
			}
			return nil
		}))
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			// A failed assertion leaves feed streams open; drop them so
			// Close does not wait on them forever.
			n.srv.CloseClientConnections()
			n.srv.Close()
		}
	}()
	var peers []string
	for _, n := range nodes {
		peers = append(peers, n.srv.URL)
	}
	join := func(i int) {
		t.Helper()
		c, err := JoinCluster(ctx, ClusterConfig{
			NodeID:         fmt.Sprintf("node-%d", i),
			Dir:            dir,
			SelfURL:        nodes[i].srv.URL,
			Peers:          peers,
			LeaseTTL:       500 * time.Millisecond,
			HeartbeatEvery: 100 * time.Millisecond,
			SeedN:          8,
			SeedEdges:      ringEdges(8),
		})
		if err != nil {
			t.Fatalf("join node-%d: %v", i, err)
		}
		nodes[i].c.Store(c)
	}
	join(0)
	if nodes[0].c.Load().Role() != RoleWriter {
		t.Fatalf("first joiner role = %v, want writer", nodes[0].c.Load().Role())
	}
	writer := nodes[0].c.Load().Engine()
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("writer rank: %v", err)
	}
	join(1)
	join(2)
	for i := 1; i <= 2; i++ {
		if nodes[i].c.Load().Role() != RoleReplica {
			t.Fatalf("node-%d role = %v, want replica", i, nodes[i].c.Load().Role())
		}
		if nodes[i].c.Load().LeaderURL() != nodes[0].srv.URL {
			t.Fatalf("node-%d leader = %q, want %q", i, nodes[i].c.Load().LeaderURL(), nodes[0].srv.URL)
		}
	}

	// Write through the leader; both replicas converge to identical ranks.
	var seq uint64
	var err error
	for i := 0; i < 4; i++ {
		seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32((i + 5) % 8)}})
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if _, err := writer.Rank(ctx); err != nil {
			t.Fatalf("rank: %v", err)
		}
	}
	for i := 1; i <= 2; i++ {
		eng := nodes[i].c.Load().Engine()
		waitFor(t, fmt.Sprintf("node-%d catch-up", i), 15*time.Second, func() bool {
			v, err := eng.View()
			return err == nil && v.Seq() == seq
		})
		if d := rankDiff(t, writer, eng); d > 1e-12 {
			t.Fatalf("node-%d ranks diverge: L∞ = %g", i, d)
		}
	}

	// Kill the writer (Halt = in-process kill -9: lease NOT released) and
	// its listener; a replica must steal the expired lease, promote, resume
	// the WAL sequence, and accept writes.
	nodes[0].c.Load().Halt()
	nodes[0].srv.Close()
	var promoted *clusterNode
	waitFor(t, "writer promotion", 30*time.Second, func() bool {
		for _, n := range nodes[1:] {
			if n.c.Load().Role() == RoleWriter {
				promoted = n
				return true
			}
		}
		return false
	})
	neweng := promoted.c.Load().Engine()
	if neweng.Stats().Replication.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", neweng.Stats().Replication.Failovers)
	}
	next, err := neweng.Apply(ctx, nil, []Edge{{U: 2, V: 6}})
	if err != nil {
		t.Fatalf("post-failover apply: %v", err)
	}
	if next != seq+1 {
		t.Fatalf("post-failover version = %d, want %d (the WAL sequence must resume)", next, seq+1)
	}
	if ds := neweng.Stats().Durability; !ds.Enabled || ds.WALSeq != next {
		t.Fatalf("promoted durability stats = %+v, want WALSeq %d", ds, next)
	}
	if _, err := neweng.Rank(ctx); err != nil {
		t.Fatalf("post-failover rank: %v", err)
	}

	// The surviving replica re-points at the new leader and converges on
	// the post-failover write.
	var survivor *clusterNode
	for _, n := range nodes[1:] {
		if n != promoted {
			survivor = n
		}
	}
	seng := survivor.c.Load().Engine()
	waitFor(t, "survivor re-point", 30*time.Second, func() bool {
		v, err := seng.View()
		return err == nil && v.Seq() == next && survivor.c.Load().LeaderURL() == promoted.srv.URL
	})
	if d := rankDiff(t, neweng, seng); d > 1e-12 {
		t.Fatalf("survivor ranks diverge after failover: L∞ = %g", d)
	}

	if err := promoted.c.Load().Close(); err != nil {
		t.Fatalf("close promoted: %v", err)
	}
	if err := survivor.c.Load().Close(); err != nil {
		t.Fatalf("close survivor: %v", err)
	}
	_ = nodes[0].c.Load().Engine().Close() // halted node: engine abandoned, close quietly
}

// ringEdges builds a directed ring over n vertices.
func ringEdges(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	return out
}
