package core

import (
	"testing"

	"dfpr/internal/graph"
)

// The blocked-sweep equivalence bar: cache-blocked chunking plus the
// sorted-frontier NextSet scans must not change results. For deterministic
// comparisons the DF variants run single-threaded (DF marks out-neighbours
// mid-pass, so multi-threaded pass membership is timing-dependent in both
// loops), as do all lock-free variants (asynchronous pass order); the
// remaining barrier-based variants run at 4 threads, where Jacobi's
// immutable read vectors make results schedule-independent. The
// cached-kernel equivalence test (cache_test.go) uses the same rule.

func blockedEquivThreads(a Algo) int {
	if a.LockFree() || a == AlgoDFBB {
		return 1
	}
	return 4
}

func TestBlockedMatchesUnblockedAllVariants(t *testing.T) {
	gOld, gNew, up, prev := cacheFixture(t)
	for _, a := range Algos {
		cfg := Config{
			Tol:     1e-300, // unreachable: both runs do exactly MaxIter sweeps
			MaxIter: 20,
			Threads: blockedEquivThreads(a),
			Chunk:   64,
		}
		in := Input{GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}

		plain := cfg
		plain.BlockBytes = -1 // probe-per-vertex loop, pure edge-balanced chunks
		rPlain := Run(a, in, plain)

		for name, bb := range map[string]int{"default": 0, "tiny": 1 << 10} {
			blockedCfg := cfg
			blockedCfg.BlockBytes = bb
			rBlocked := Run(a, in, blockedCfg)
			if rPlain.Err != nil || rBlocked.Err != nil {
				t.Fatalf("%v/%s: errs %v / %v", a, name, rPlain.Err, rBlocked.Err)
			}
			if d := linf(rPlain.Ranks, rBlocked.Ranks); d > 1e-12 {
				t.Errorf("%v/%s: blocked sweep deviates from unblocked: L∞ = %g", a, name, d)
			}
		}
	}
}

func TestBlockedSweepResultCounters(t *testing.T) {
	gOld, gNew, up, prev := cacheFixture(t)
	in := Input{GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}
	cfg := testCfg()

	res := Run(AlgoDFBB, in, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SweepBlocks <= 0 {
		t.Errorf("blocked DFBB run reported %d sweep blocks", res.SweepBlocks)
	}
	if res.FrontierScanned <= 0 {
		t.Errorf("blocked DFBB run reported %d frontier-scanned vertices", res.FrontierScanned)
	}

	plain := cfg
	plain.BlockBytes = -1
	res = Run(AlgoDFBB, in, plain)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SweepBlocks <= 0 {
		t.Errorf("unblocked run reported %d sweep blocks", res.SweepBlocks)
	}
	if res.FrontierScanned != 0 {
		t.Errorf("unblocked run reported %d frontier-scanned vertices, want 0", res.FrontierScanned)
	}

	// Static variants have no frontier: the scan path must stay off even
	// with blocking enabled.
	res = Run(AlgoStaticBB, Input{GNew: gNew}, cfg)
	if res.FrontierScanned != 0 {
		t.Errorf("static run reported %d frontier-scanned vertices, want 0", res.FrontierScanned)
	}
}

func TestParallelCachedSweepMatchesSequential(t *testing.T) {
	g := randomGraph(9, 42).Snapshot()
	seq := NewKernelBench(g, DefaultAlpha)
	par := NewKernelBench(g, DefaultAlpha)
	for i := 0; i < 5; i++ {
		seq.CachedSweep()
		par.ParallelCachedSweep(4)
	}
	// Jacobi with disjoint chunks over immutable read vectors is the same
	// arithmetic per vertex regardless of schedule: bit-identical, not just
	// within tolerance.
	if d := linf(seq.r, par.r); d != 0 {
		t.Errorf("parallel blocked sweep deviates from sequential: L∞ = %g", d)
	}
	if seq.Checksum() != par.Checksum() {
		t.Error("checksums differ")
	}
}

func TestDecodeBenchMatchesKernelBench(t *testing.T) {
	g := randomGraph(9, 43).Snapshot()
	plain := NewKernelBench(g, DefaultAlpha)
	dec := NewDecodeBench(graph.CompressCSR(g), DefaultAlpha)
	if plain.Edges() != dec.Edges() {
		t.Fatalf("edge counts differ: %d vs %d", plain.Edges(), dec.Edges())
	}
	for i := 0; i < 5; i++ {
		plain.CachedSweep()
		dec.CachedSweep()
	}
	if d := linf(plain.r, dec.r); d != 0 {
		t.Errorf("decode-on-sweep deviates from plain cached sweep: L∞ = %g", d)
	}
	dec2 := NewDecodeBench(graph.CompressCSR(g), DefaultAlpha)
	for i := 0; i < 5; i++ {
		dec2.ParallelCachedSweep(4)
	}
	if d := linf(dec.r, dec2.r); d != 0 {
		t.Errorf("parallel decode sweep deviates from sequential: L∞ = %g", d)
	}
}

// TestBlockedRaceSmoke drives the blocked scan paths with many workers so
// `go test -race -cpu 1,2,4` exercises the NextSet loops under contention.
func TestBlockedRaceSmoke(t *testing.T) {
	gOld, gNew, up, prev := cacheFixture(t)
	in := Input{GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}
	for _, a := range []Algo{AlgoDFBB, AlgoDFLF, AlgoDTLF} {
		cfg := testCfg()
		cfg.Threads = 8
		res := Run(a, in, cfg)
		if res.Err != nil {
			t.Fatalf("%v: %v", a, res.Err)
		}
		if !res.Converged {
			t.Errorf("%v: did not converge", a)
		}
	}
}
