package dfpr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfpr/internal/fault"
	"dfpr/internal/graph"
	"dfpr/internal/testutil"
	"dfpr/internal/topk"
	"dfpr/internal/wal"
)

// Durability acceptance tests: a WithDurability engine must come back from a
// restart — clean or killed mid-write — to the same fixed point a
// never-crashed engine holds, within the L∞ ≤ 1e-12 growth-equivalence
// bound, and a dying disk must degrade it, never wedge it.

// durableOpts is the common durable-engine configuration: tolerance tight
// enough (growthTol) that two converged runs compare at 1e-12.
func durableOpts(dir string, extra ...Option) []Option {
	return append([]Option{WithDurability(dir), WithThreads(4), WithTolerance(growthTol)}, extra...)
}

func TestDurableRecoveryEquivalenceDense(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := newGrowthScript(40, 7)

	eng, err := New(s.n, s.initialEdges(), durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := HasDurableState(dir); !ok {
		t.Fatal("seeded engine left no durable state")
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		del, ins := s.nextBatch(4 + i)
		if _, err := eng.Apply(ctx, del, ins); err != nil {
			t.Fatal(err)
		}
	}
	preRes, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	preRanks := ranksOf(preRes.View)
	wantVer := eng.Version()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the directory alone: n/edges are ignored in favour of the
	// persisted state (seed checkpoint + replayed tail).
	eng2, err := New(0, nil, durableOpts(dir)...)
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Version(); got != wantVer {
		t.Fatalf("recovered version %d, want %d", got, wantVer)
	}
	if !eng2.Recovering() {
		t.Fatal("engine with a replayed tail does not report recovering")
	}
	st := eng2.Stats().Durability
	if !st.Enabled || st.ReplayedRecords != 3 {
		t.Fatalf("durability stats after recovery: %+v", st)
	}
	res, err := eng2.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Recovering() {
		t.Fatal("still recovering after Rank caught the tip")
	}
	if d := topk.LInf(ranksOf(res.View), preRanks); d > 1e-12 {
		t.Errorf("recovered ranks deviate from pre-crash ranks by %g (bound 1e-12)", d)
	}
	// And against a genuine cold build of the final graph (the script's edge
	// set after all batches), closing the replay→cold triangle.
	cold, err := New(s.n, s.initialEdges(), WithThreads(4), WithTolerance(growthTol))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldRes, err := cold.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := topk.LInf(ranksOf(res.View), ranksOf(coldRes.View)); d > 1e-12 {
		t.Errorf("recovered ranks deviate from cold build by %g (bound 1e-12)", d)
	}
}

func TestDurableRecoveryEquivalenceKeyed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	key := func(i int) string { return fmt.Sprintf("node-%03d", i) }
	batchFor := func(round int) (ins []KeyEdge) {
		// Each round wires three new keys into a chain rooted at node-000,
		// so the universe grows and old ranks shift.
		base := 1 + 3*round
		prev := key(0)
		for i := base; i < base+3; i++ {
			ins = append(ins, KeyEdge{From: prev, To: key(i)}, KeyEdge{From: key(i), To: key(0)})
			prev = key(i)
		}
		return ins
	}

	eng, err := Open(durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(WithThreads(4), WithTolerance(growthTol))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for round := 0; round < 3; round++ {
		if _, err := eng.ApplyKeyed(ctx, nil, batchFor(round)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyKeyed(ctx, nil, batchFor(round)); err != nil {
			t.Fatal(err)
		}
		if round == 1 { // mid-script rank so a published version precedes the tail
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantKeys := eng.Keys()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(durableOpts(dir)...)
	if err != nil {
		t.Fatalf("keyed warm restart: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Keys(); got != wantKeys {
		t.Fatalf("recovered %d keys, want %d", got, wantKeys)
	}
	// Every key resolves to the same dense id it held before the restart:
	// ids are dense in first-mention order, and replay re-interns in order.
	for i := 0; i < wantKeys; i++ {
		id, ok := eng2.Resolve(key(i))
		if !ok || int(id) != i {
			t.Fatalf("key %q resolved to (%d, %v), want (%d, true)", key(i), id, ok, i)
		}
	}
	res, err := eng2.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := topk.LInf(ranksOf(res.View), ranksOf(refRes.View)); d > 1e-12 {
		t.Errorf("recovered keyed ranks deviate by %g (bound 1e-12)", d)
	}
}

// TestDurableKillMidWriteEveryOffset is the crash-safety sweep: the WAL
// segment is truncated at EVERY byte offset (a kill can land anywhere in a
// write), and from each prefix the engine must start, recover a consistent
// batch prefix, and rank it to the matching never-crashed fixed point.
func TestDurableKillMidWriteEveryOffset(t *testing.T) {
	ctx := context.Background()
	src := t.TempDir()
	const n0 = 16
	var initial []Edge
	for u := 0; u < n0; u++ {
		initial = append(initial, Edge{U: uint32(u), V: uint32((u + 1) % n0)})
	}
	batches := [][2][]Edge{
		{nil, {{U: 16, V: 0}, {U: 0, V: 16}}},          // growth
		{{{U: 0, V: 1}}, {{U: 2, V: 5}, {U: 5, V: 9}}}, // churn
		{nil, {{U: 17, V: 3}, {U: 3, V: 17}}},          // growth again
	}

	eng, err := New(n0, initial, durableOpts(src)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := eng.Apply(ctx, b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference ranks for every batch prefix 0..3.
	refRanks := make([][]float64, len(batches)+1)
	for p := 0; p <= len(batches); p++ {
		r, err := New(n0, initial, WithThreads(2), WithTolerance(growthTol))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:p] {
			if _, err := r.Apply(ctx, b[0], b[1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		refRanks[p] = ranksOf(res.View)
		r.Close()
	}

	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var segName, ckptName string
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".log":
			segName = e.Name()
		case ".ckpt":
			ckptName = e.Name()
		}
	}
	if segName == "" || ckptName == "" {
		t.Fatalf("durable dir holds %v, want a segment and a checkpoint", entries)
	}
	seg, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(src, ckptName))
	if err != nil {
		t.Fatal(err)
	}

	lastVer := uint64(0)
	for cut := 0; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := New(0, nil, durableOpts(dir)...)
		if err != nil {
			t.Fatalf("cut %d/%d: restart failed: %v", cut, len(seg), err)
		}
		ver := e.Version()
		if ver > uint64(len(batches)) {
			t.Fatalf("cut %d: recovered version %d beyond %d batches", cut, ver, len(batches))
		}
		if ver < lastVer {
			t.Fatalf("cut %d: recovered version %d < %d at a shorter cut", cut, ver, lastVer)
		}
		lastVer = ver
		res, err := e.Rank(ctx)
		if err != nil {
			t.Fatalf("cut %d: rank after recovery: %v", cut, err)
		}
		if d := topk.LInf(ranksOf(res.View), refRanks[ver]); d > 1e-12 {
			t.Fatalf("cut %d: recovered prefix %d deviates by %g", cut, ver, d)
		}
		e.Close()
	}
	if lastVer != uint64(len(batches)) {
		t.Fatalf("full log recovered version %d, want %d", lastVer, len(batches))
	}
}

// TestDurableDegradedKeepsServing pins degradation over outage: when the
// disk dies mid-run the engine keeps applying and serving reads, surfaces
// ErrDurabilityDegraded through Stats/Flush/Checkpoint/Close, and never
// wedges the ingest pipeline.
func TestDurableDegradedKeepsServing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Write 1 is the seed checkpoint; the first WAL append (write 2) fails
	// and every write after it, like a disk going read-only.
	inj := fault.NewIOInjector(fault.IOPlan{FailWritesFrom: 2})
	eng, err := New(8, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}},
		durableOpts(dir, withWALFS(wal.InjectFS(wal.OSFS(), inj)))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 3, V: 0}}); err != nil {
		t.Fatalf("apply on a degraded log must proceed in memory: %v", err)
	}
	st := eng.Stats().Durability
	if !st.Degraded || !errors.Is(st.Err, ErrDurabilityDegraded) || !errors.Is(st.Err, fault.ErrInjected) {
		t.Fatalf("degradation not surfaced: %+v", st)
	}
	// The pipeline still applies and ranks: reads serve the new version.
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil || v.Seq() != 1 {
		t.Fatalf("degraded engine view: %v (seq %d)", err, v.Seq())
	}
	tk, err := eng.Submit(ctx, nil, []Edge{{U: 4, V: 1}})
	if err != nil {
		t.Fatalf("submit on degraded engine: %v", err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatalf("degraded ingest wedged: %v", err)
	}
	if err := eng.Checkpoint(); !errors.Is(err, ErrDurabilityDegraded) {
		t.Fatalf("Checkpoint on degraded engine: %v", err)
	}
	if err := eng.Flush(ctx); !errors.Is(err, ErrDurabilityDegraded) {
		t.Fatalf("Flush on degraded engine: %v", err)
	}
	if err := eng.Close(); !errors.Is(err, ErrDurabilityDegraded) {
		t.Fatalf("Close on degraded engine: %v", err)
	}

	// The writes died with the process, but the directory is not poisoned:
	// a restart recovers the seed state and runs clean.
	eng2, err := New(0, nil, durableOpts(dir)...)
	if err != nil {
		t.Fatalf("restart after degradation: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Version(); got != 0 {
		t.Fatalf("unlogged writes survived: version %d", got)
	}
	if st := eng2.Stats().Durability; st.Degraded {
		t.Fatal("fresh log inherited degradation")
	}
}

// TestDurableRecoveryGoroutineLeak: a recovery-then-Close cycle (including
// the batched-fsync flusher and a background checkpoint) leaves no
// goroutines behind.
func TestDurableRecoveryGoroutineLeak(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	waitJoined := testutil.LeakCheck(t, "recovery+Close")

	eng, err := New(8, []Edge{{U: 0, V: 1}, {U: 1, V: 0}},
		durableOpts(dir, WithFsync(FsyncBatched(time.Millisecond)), WithCheckpointEvery(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 2, V: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil { // publication → background checkpoint
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := New(0, nil, durableOpts(dir, WithFsync(FsyncBatched(time.Millisecond)))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	waitJoined()
}

func TestDurableFsyncAlwaysAndPolicyParse(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := New(8, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}, durableOpts(dir, WithFsync(FsyncAlways()))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 2, V: 0}}); err != nil {
		t.Fatal(err)
	}
	// Under FsyncAlways the append itself is the sync barrier: LastFsync is
	// set as soon as a record lands, no Flush needed.
	if st := eng.Stats().Durability; st.LastFsync.IsZero() || st.WALSeq != 1 {
		t.Fatalf("FsyncAlways stats: %+v", st)
	}
	eng.Close()

	for in, want := range map[string]string{
		"always": "always", "none": "none", "batched": "batched",
		"batched:10ms": "batched:10ms",
	} {
		p, err := ParseFsyncPolicy(in)
		if err != nil {
			t.Fatalf("ParseFsyncPolicy(%q): %v", in, err)
		}
		if p.String() != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %q, want %q", in, p, want)
		}
	}
	for _, bad := range []string{"", "sometimes", "batched:", "batched:-1ms", "batched:x"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Fatalf("ParseFsyncPolicy(%q) accepted", bad)
		}
	}
}

// TestDurableCheckpointBoundsReplay: an explicit Checkpoint covers the whole
// log, so the next restart replays nothing and serves the checkpointed view
// immediately, with no recovery window.
func TestDurableCheckpointBoundsReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := New(8, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}, durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Apply(ctx, nil, []Edge{{U: uint32(2 + i), V: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := ranksOf(res.View)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats().Durability; st.CheckpointSeq != 4 {
		t.Fatalf("checkpoint seq %d, want 4", st.CheckpointSeq)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := New(0, nil, durableOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.Recovering() {
		t.Fatal("checkpoint-exact restart reports recovering")
	}
	if st := eng2.Stats().Durability; st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records past a covering checkpoint", st.ReplayedRecords)
	}
	// The checkpointed ranks serve immediately — no Rank call needed.
	v, err := eng2.View()
	if err != nil {
		t.Fatalf("warm restart has no view: %v", err)
	}
	if v.Seq() != 4 {
		t.Fatalf("warm view at version %d, want 4", v.Seq())
	}
	if d := topk.LInf(ranksOf(v), wantRanks); d != 0 {
		t.Fatalf("resumed ranks differ from checkpointed ranks by %g, want bit-exact", d)
	}
}

// TestDurableModeMismatch: a directory holds one engine flavour; opening it
// as the other is refused with a pointed error instead of silent confusion.
func TestDurableModeMismatch(t *testing.T) {
	ctx := context.Background()
	dense := t.TempDir()
	eng, err := New(4, []Edge{{U: 0, V: 1}}, durableOpts(dense)...)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := Open(durableOpts(dense)...); err == nil || !strings.Contains(err.Error(), "with New, not Open") {
		t.Fatalf("Open of a dense-ID engine's state: err = %v, want one advising New", err)
	}

	keyed := t.TempDir()
	keng, err := Open(durableOpts(keyed)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}}); err != nil {
		t.Fatal(err)
	}
	keng.Close()
	// The keyed state here is an empty checkpoint plus a keyed WAL tail, so
	// the rejection comes from the tail replay.
	if _, err := New(4, nil, durableOpts(keyed)...); err == nil || !strings.Contains(err.Error(), "with Open, not New") {
		t.Fatalf("New of a keyed engine's state: err = %v, want one advising Open", err)
	}
}

// TestApplyLoggedBranches drives applyLogged — the one publish path for
// records already in a log (replica stream, promotion tail, warm-restart
// replay) — through every branch. A rejected run must leave the engine as
// it was: no version published, no key interned.
func TestApplyLoggedBranches(t *testing.T) {
	ctx := context.Background()
	// dense is a dense-ID engine at version 2, so records 1 and 2 overlap.
	dense := func(t *testing.T) *Engine {
		e, err := New(4, ringEdges(4))
		if err != nil {
			t.Fatal(err)
		}
		for u := uint32(0); u < 2; u++ {
			if _, err := e.Apply(ctx, nil, []Edge{{U: u, V: 3}}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	// keyed is a keyed engine at version 1 holding keys a and b.
	keyed := func(t *testing.T) *Engine {
		e, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	keyC := wal.Record{Seq: 2, N: 3, KeyBase: 2, Keys: []string{"c"}, Ins: []graph.Edge{{U: 2, V: 0}}}
	cases := []struct {
		name    string
		eng     func(*testing.T) *Engine
		recs    []wal.Record
		applied int
		err     string // substring of the rejection; "" for success
		version uint64
		keys    int
	}{
		{name: "empty input is a no-op", eng: dense, version: 2},
		{name: "overlap skipped", eng: dense, recs: []wal.Record{
			{Seq: 1, N: 4}, {Seq: 2, N: 4}, {Seq: 3, N: 6, Ins: []graph.Edge{{U: 0, V: 5}}},
		}, applied: 1, version: 3},
		{name: "only overlap", eng: dense, recs: []wal.Record{{Seq: 1, N: 4}, {Seq: 2, N: 4}}, version: 2},
		{name: "gap rejected", eng: dense, recs: []wal.Record{{Seq: 4, N: 4}}, err: "gap", version: 2},
		{name: "gap after a valid record rejected", eng: keyed, recs: []wal.Record{keyC, {Seq: 4, N: 3}},
			err: "gap", version: 1, keys: 2},
		{name: "key base mismatch rejected", eng: keyed, recs: []wal.Record{{Seq: 2, N: 3, KeyBase: 5, Keys: []string{"c"}}},
			err: "keys from id 5", version: 1, keys: 2},
		{name: "keyed record on a dense engine rejected", eng: dense, recs: []wal.Record{{Seq: 3, N: 5, KeyBase: 4, Keys: []string{"x"}}},
			err: "dense-ID engine", version: 2},
		{name: "keyed record extends the key space", eng: keyed, recs: []wal.Record{keyC}, applied: 1, version: 2, keys: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.eng(t)
			defer e.Close()
			n, err := e.applyLogged(tc.recs)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("applyLogged: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("applyLogged err = %v, want one mentioning %q", err, tc.err)
			}
			if n != tc.applied {
				t.Errorf("applied %d records, want %d", n, tc.applied)
			}
			if v := e.Version(); v != tc.version {
				t.Errorf("version %d, want %d", v, tc.version)
			}
			if k := e.Keys(); k != tc.keys {
				t.Errorf("%d keys, want %d", k, tc.keys)
			}
		})
	}
}
