// Command perfbench is the repository's end-to-end benchmark: a seeded,
// single-process load generator that pushes writes and reads through the public
// dfpr and serve APIs on fixed open-loop schedules, reports what a user of
// the pipeline sees (submit → coalesce → WAL → snapshot → incremental rank →
// view → serve → replica), and checks the final ranks against a reference
// solve. BENCHMARK.json at the repository root names its workloads and
// metrics; run it from the repository root:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the result: correct, attempted,
// failed and metrics. The line before it repeats every metric with its
// sample count and, for a _tail metric, the percentile it reports, plus the
// run's metadata (git rev, CPU model, nproc, GOMAXPROCS, Go version, seed),
// workload parameters and correctness gate. The exit code is 0 on success,
// 1 when the correctness gate failed, 2 when the run could not complete.
//
// # Workloads
//
// One process issues the load: one goroutine writes and one reads, each on
// its own open-loop schedule, so a stall makes every later operation late
// and every latency is timed from when the operation was due. Engines run
// DFLF with two workers, RankImmediate and 64 retained versions.
//
//   - bulk: the sk-2005 stand-in (gen.SuiteSparse12(1), 65,536 vertices,
//     ~2.24M edges) in process, batch.Random writes of 10⁻³|E| (~2,244)
//     edges at 1.35/s, reads (View + ScoreOf, one in ten TopK(10)) at
//     100/s. The DF frontier is wide, so the rank kernels do most of the
//     work; a snapshot or ingest change should not move write_ranked here.
//   - serve-replicated: the keyed web-65k graph (gen.Web, N=65,536, degree
//     12, ~0.8M edges, keys v<id>) loaded into a durable writer (batched
//     fsync) behind serve.Server on loopback, with one StartReplica follower
//     behind a second server. Keyed 8-edge POST /v1/apply at 3.2/s, every
//     fourth naming a new key; GET /v1/rank/{key} and /v1/topk at 150/s,
//     alternating between writer and replica. The only workload that
//     reaches serve, wal, repl and keymap. Its small writes also make
//     per-version fixed costs (CSR copy, publish) a large share of a round.
//
// A third workload, trickle (10-edge writes at 3.2/s on the sk-2005
// stand-in, where per-version fixed costs dominate), was dropped: over two
// 10-seed sets its catchup_edits_per_s spread reached 0.28 and its
// write_ranked_p50 0.23 of their medians, past or at the 0.25 bound.
//
// The write rates keep each engine's refresh duty cycle under one half. A
// refresh occupies both CPUs, and while it runs every other goroutine (the
// ingest loop, HTTP handlers, the load generator) waits for Go's 10 ms
// preemption; at higher rates the medians flip between the idle and the
// contended mode from run to run.
//
// The seed (--seed) derives the graph, the writes, the new keys and the
// read targets; the engines only ever see the generated inputs. Seed 9001
// is held out: use it to check a claimed gain after the change is written,
// never to tune one.
//
// # Tolerance
//
// τ = 1e-3/n matches the paper's relative precision at stand-in scale (it
// uses τ = 1e-10 on graphs of 10⁷–10⁸ vertices, τ·n ≈ 1e-3). The frontier
// tolerance is τ_f = τ/10. With τ_f = τ the bulk workload's ranks drifted
// past the correctness gate's 20τ (L∞ 3.3e-7 against 3.05e-7 at seed 1):
// every refresh leaves changes below τ_f unpropagated and wide batches
// accumulate them. At τ/10 the largest bulk L∞ seen over 30 seeds was
// 1.81e-7 (seed 110). The library default τ_f = τ/1000 costs ~300 ms per
// 10-edge refresh on sk-2005, which saturates both sk-2005 workloads, and
// τ/30 already pushes bulk's refresh duty cycle past one half.
//
// # Metrics
//
// End-to-end metrics come from an untraced run (--trace 0):
//
//   - setup_s: engine construction to the first ranked View, median of
//     five builds per run; on serve-replicated also the keyed load, a
//     checkpoint, both listeners and the replica ranked at the writer's
//     version. Input generation is excluded.
//   - write_visible_*: due → the writer publishes the version holding the
//     write (in process, Ticket.Done; served, WaitVersion after the 202).
//   - write_ranked_*: due → WaitRanked on that version returns.
//   - read_*: due → the answer (in process, View + ScoreOf or TopK(10);
//     served, the GET round trip), while writes run.
//   - replica_visible_*: due → WaitVersion on the read side returns. On
//     serve-replicated that is the replica; the in-process workloads have no
//     replica, so their read side is the writer itself and this metric
//     tracks write_visible.
//   - catchup_edits_per_s: after the steady phase, fixed backlogs of
//     writes (bulk 21 backlogs of 4 writes, serve-replicated 31 of 100),
//     each started on an idle pipeline: the
//     first write is published, then the rest are submitted back to back
//     so they queue behind its refresh. Each is edits ÷ (first submit →
//     the writer's WaitRanked on the last); the median is reported.
//     Backlogs go to the writer engine's Submit (SubmitKeyed on
//     serve-replicated): a POST /v1/apply returns only once its round is
//     published, so POSTs sent one after another never form a backlog.
//     Rates drift within a run, so the median needs many backlogs: over 10
//     seeds of the dropped trickle workload, the median of a run's first 5
//     backlogs spread 0.19, that of all 21 0.07. Timing serve-replicated's
//     backlogs until the replica, not the writer, had ranked them doubled
//     their spread (0.22 against 0.11), as the two engines' refreshes race
//     for the CPUs.
//   - retained_heap_mb: HeapAlloc (MB = 2^20 bytes) after runtime.GC at the
//     end of the steady phase, with up to 64 versions retained (bulk's
//     steady phase publishes fewer).
//
// A _p50 metric is the median; a _tail metric is the highest percentile of
// 50, 75, 90, 95, 99, 99.9, 99.99 that leaves at least ten samples beyond
// it (a 45 s run gives bulk writes p75, serve-replicated writes p90, reads
// p99). The schedule fixes the
// sample count, so the percentile is the same on every run of a workload.
// The tails are printed in the detail line only: BENCHMARK.json bounds the
// medians, catchup_edits_per_s, retained_heap_mb and setup_s. Over 10-seed
// sets on a 2-vCPU VM the tails' interquartile spread reached 0.20–0.32 of
// their median (serve-replicated read_tail_us: 0.11 in one set, 0.32 in
// the next; its p99 falls among reads stalled behind the writer's and the
// replica's concurrent refreshes), above the largest bound a metric may
// have. Failed or refused operations
// (errors, ErrQueueFull, HTTP non-2xx, timeouts) are counted in the
// result's failed field and left out of the latencies; perfbench/compare
// treats a change that fails more of them than its parent as regressed.
// A write keeps its version from the moment its ticket or 202 names it,
// so one that is slow to rank or to replicate still enters the replay, and
// one whose wait timed out is waited for again after the drain. A write
// that failed after the server may have queued it (a transport error or a
// 5xx) has no known version: the run then exits 2, not 1.
//
// A traced run (--trace 1) gives the per-layer metrics. Its steady phase
// traces every other operation, with a span around every call the
// benchmark makes for it; trace.overhead_frac compares the traced and the
// untraced operations' write_visible, write_ranked and read medians, which
// ran over the same engine state. It then
// replays the recorded ingest rounds — submissions whose tickets returned
// the same version form one round — on a fresh copy of the start graph:
// batch.Merge → wal.Log.Append (served only) → snapshot.Store.Apply →
// snapshot.Ranker.RefreshTrace at every version the engine published ranks
// for → the first top-k selection, each call a span (trace.coverage is the
// replayed stage time over the observed Ticket.Wait + WaitRanked time of
// each round's first write, over the steady-phase rounds; it exceeds 1
// when the replay's single-threaded traced refresh is slower than the
// engine's two-worker one, as on bulk). The published
// versions come from Engine.Subscribe, whose stream conflates; a version it
// skipped is looked up among the retained views with ViewAt, and the run
// exits 2 unless it saw one version per refresh the engine's Stats counted.
// Engine Stats and Metrics are read at the steady phase's ends. A span names its op and its parent: each traced
// write has a root span "write" (due → ranked) over its calls, reads take
// op ids after the writes', and each replayed round has a "replay.round"
// root under the op of the write that opened it. Spans stay in memory and
// are written to $CARGO_TARGET_DIR/trace-<workload>-<seed>.jsonl when the
// run ends. Nothing inside the library is instrumented. A layer metric a workload
// does not reach reads 0 (wal, repl, keymap and serve in process; Submit,
// Ticket.Wait, View and ScoreOf spans on serve-replicated, whose writes and
// reads go through HTTP). core.sweep_blocks and core.frontier_blocks are
// per engine refresh.
//
// Each per-layer metric, the end-to-end metric it should move, and the
// workloads that show it most / least:
//
//	dfpr.*      submit, ticket and rank waits, view, round and refresh
//	            counts, queue depth, publish→ranked   write_visible, write_ranked, catchup   bulk / serve-replicated
//	batch.*     merge time, kept fraction             write_visible, catchup                 bulk / serve-replicated
//	snapshot.*  Store.Apply, bytes and heap/version   write_visible, retained_heap_mb        serve-replicated / bulk
//	core.*      RefreshTrace, iterations, ms/iter,
//	            affected fraction, versions/refresh,
//	            sweep and frontier blocks             write_ranked, catchup                  bulk / serve-replicated
//	wal.*       append, fsync, bytes/record, ckpt     write_visible, write_ranked tail       serve-replicated only
//	repl.*      lag, lag records, replica refresh     replica_visible, read_tail             serve-replicated only
//	keymap.*    Resolve, keys interned                read_p50, write_visible                serve-replicated only
//	view.*      first top-k per version, ScoreOf      read_tail, read_p50                    bulk / serve-replicated
//	serve.*     POST round trip, server read time,
//	            rejected                              read_p50, write_visible, failures      serve-replicated only
//	go.*        GC cycles and pauses, alloc rate, CPU every _tail, retained_heap_mb          serve-replicated / bulk
//	loadgen.*,
//	trace.*     lateness, failed fraction, tracing
//	            overhead and coverage                 benchmark health                       all
//
// # Correctness gate
//
// After every run the writer is flushed (and the replica waited to the same
// version), the replay's final CSR must match the engine's vertex and edge
// counts, and every final rank vector must lie within 20τ in L∞ of
// core.Reference on that CSR — the bound internal/snapshot's tests apply to
// incremental refreshes.
//
// # Comparing two commits
//
// perfbench/compare runs the benchmark on two checkouts in alternating
// pairs and applies the paired rule (9 of 10 wins and a median gap larger
// than the parent's interquartile range for a gain; the BENCHMARK.json
// bound for no regression; "unresolved" when the spread exceeds the bound;
// no gain and a regression when the change failed more operations).
// The single-shot BENCH_PR*.json figures in the repository root come from
// other harnesses and settings and are not comparable with this benchmark.
package main
