package core

import (
	"math"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
)

// The equivalence tests pin the contribution-cached kernels against the seed
// kernels they replaced. Both engines run a *fixed* number of iterations
// (Tol far below reachable precision) so the iteration structure is
// identical and the only difference is the kernel arithmetic: the seed form
// α·r[u]·inv[u] versus the cached gather of contrib[u] = r[u]·(α·inv[u]).
// Those associate the same products differently, so results agree to
// rounding (≲ n·ulp per sweep), which 1e-12 bounds with wide margin.

// cacheFixture builds a mid-size update on an RMAT graph plus converged
// previous ranks, shared by every variant comparison.
func cacheFixture(t *testing.T) (gOld, gNew *graph.CSR, up batch.Update, prev []float64) {
	t.Helper()
	scale := 10
	if testing.Short() {
		scale = 8
	}
	d := randomGraph(scale, 77)
	g := d.Snapshot()
	prev = StaticBB(g, testCfg()).Ranks
	up = batch.Random(d, 24, 5)
	gOld, gNew = batch.Transition(d, up)
	return gOld, gNew, up, prev
}

func linf(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestCachedKernelMatchesSeedKernel runs every variant twice — seed kernel
// vs contribution-cached kernel — under a pinned iteration count and asserts
// the rank vectors agree within L∞ 1e-12.
func TestCachedKernelMatchesSeedKernel(t *testing.T) {
	gOld, gNew, up, prev := cacheFixture(t)
	for _, a := range Algos {
		cfg := Config{
			Tol:     1e-300, // unreachable: both runs do exactly MaxIter sweeps
			MaxIter: 20,
			Threads: blockedEquivThreads(a), // deterministic pass order (blocked_test.go)
			Chunk:   64,
		}
		in := Input{GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}

		seedCfg := cfg
		seedCfg.seedKernel = true
		rSeed := Run(a, in, seedCfg)
		rCached := Run(a, in, cfg)
		if rSeed.Err != nil || rCached.Err != nil {
			t.Fatalf("%v: errs %v / %v", a, rSeed.Err, rCached.Err)
		}
		if d := linf(rSeed.Ranks, rCached.Ranks); d > 1e-12 {
			t.Errorf("%v: cached kernel deviates from seed kernel: L∞ = %g", a, d)
		}
	}
}

// TestCachedKernelMatchesSeedKernelEedi covers the ninth engine, the
// Eedi-et-al. static-scheduling baseline, the same way.
func TestCachedKernelMatchesSeedKernelEedi(t *testing.T) {
	_, gNew, _, _ := cacheFixture(t)
	cfg := Config{Tol: 1e-300, MaxIter: 20, Threads: 1, Chunk: 64}
	seedCfg := cfg
	seedCfg.seedKernel = true
	rSeed := StaticLFNS(gNew, seedCfg)
	rCached := StaticLFNS(gNew, cfg)
	if d := linf(rSeed.Ranks, rCached.Ranks); d > 1e-12 {
		t.Errorf("StaticLFNS: cached kernel deviates from seed kernel: L∞ = %g", d)
	}
}

// TestCachedKernelConvergesToReference is the end-to-end guard: the cached
// engines, multi-threaded and edge-balanced, still converge to the
// high-precision reference on a converged run.
func TestCachedKernelConvergesToReference(t *testing.T) {
	gOld, gNew, up, prev := cacheFixture(t)
	ref := Reference(gNew, Config{})
	cfg := testCfg()
	for _, a := range Algos {
		in := Input{GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}
		res := Run(a, in, cfg)
		if res.Err != nil {
			t.Fatalf("%v: %v", a, res.Err)
		}
		if !res.Converged {
			t.Errorf("%v: did not converge", a)
		}
		if d := linf(res.Ranks, ref); d > 1e-6 {
			t.Errorf("%v: L∞ vs reference = %g", a, d)
		}
	}
}

// TestUniformChunksMatchesEdgeBalanced pins the two scheduling modes against
// each other on a deterministic barrier-based run: chunk boundaries must not
// change results, only load balance.
func TestUniformChunksMatchesEdgeBalanced(t *testing.T) {
	_, gNew, _, _ := cacheFixture(t)
	cfg := testCfg()
	balanced := StaticBB(gNew, cfg)
	cfg.UniformChunks = true
	uniform := StaticBB(gNew, cfg)
	if balanced.Iterations != uniform.Iterations {
		t.Errorf("iteration count differs: balanced %d vs uniform %d", balanced.Iterations, uniform.Iterations)
	}
	if d := linf(balanced.Ranks, uniform.Ranks); d != 0 {
		t.Errorf("BB results depend on chunking: L∞ = %g", d)
	}
}
