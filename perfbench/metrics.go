package main

import (
	"runtime"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, moves is the
// end-to-end metric it should move and on is the workload that shows it
// most, then the one that shows it least (the table BENCHMARK.json's
// per_layer list is checked against).
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off, that BENCHMARK.json bounds; every workload reports every one
// (see doc.go for the in-process meaning of replica_visible).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "write_visible_p50_ms", unit: "ms", better: "lower"},
	{name: "write_ranked_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "replica_visible_p50_ms", unit: "ms", better: "lower"},
	{name: "catchup_edits_per_s", unit: "edits/s", better: "higher"},
	{name: "retained_heap_mb", unit: "MB", better: "lower"},
}

// tails are the end-to-end tail latencies. Every untraced run prints them
// in its detail line, but BENCHMARK.json does not bound them: their
// run-to-run spread on a 2-CPU box reached 0.2–0.3 of the median (see
// doc.go), more than any bound the benchmark may set.
var tails = []metricDef{
	{name: "write_visible_tail_ms", unit: "ms", better: "lower"},
	{name: "write_ranked_tail_ms", unit: "ms", better: "lower"},
	{name: "read_tail_us", unit: "us", better: "lower"},
	{name: "replica_visible_tail_ms", unit: "ms", better: "lower"},
}

// perLayer lists the traced run's metrics, one group per layer of the
// repository.
var perLayer = []metricDef{
	{"dfpr.submit_us_p50", "us", "lower", "write_visible", "bulk only"},
	{"dfpr.visible_wait_ms_p50", "ms", "lower", "write_visible", "bulk only"},
	{"dfpr.visible_wait_ms_tail", "ms", "lower", "write_visible", "bulk only"},
	{"dfpr.rank_wait_ms_p50", "ms", "lower", "write_ranked", "bulk / serve-replicated"},
	{"dfpr.rank_wait_ms_tail", "ms", "lower", "write_ranked", "bulk / serve-replicated"},
	{"dfpr.view_us_p50", "us", "lower", "read_p50", "bulk only"},
	{"dfpr.edits_per_round", "count", "higher", "catchup", "bulk / serve-replicated"},
	{"dfpr.rounds_per_refresh", "count", "higher", "catchup", "bulk / serve-replicated"},
	{"dfpr.queue_edits_max", "count", "lower", "write_visible", "bulk / serve-replicated"},
	{"dfpr.publish_to_ranked_ms_p50", "ms", "lower", "write_ranked", "bulk / serve-replicated"},

	{"batch.merge_us_p50", "us", "lower", "write_visible, catchup", "bulk / serve-replicated"},
	{"batch.merge_kept_frac", "ratio", "lower", "write_visible, catchup", "bulk / serve-replicated"},

	{"snapshot.apply_ms_p50", "ms", "lower", "write_visible", "serve-replicated / bulk"},
	{"snapshot.apply_ms_tail", "ms", "lower", "write_visible", "serve-replicated / bulk"},
	{"snapshot.version_bytes", "bytes", "lower", "retained_heap_mb", "serve-replicated / bulk"},
	{"snapshot.heap_per_version_mb", "MB", "lower", "retained_heap_mb", "serve-replicated / bulk"},

	{"core.refresh_ms_p50", "ms", "lower", "write_ranked, catchup", "bulk / serve-replicated"},
	{"core.refresh_ms_tail", "ms", "lower", "write_ranked, catchup", "bulk / serve-replicated"},
	{"core.iterations_p50", "count", "lower", "write_ranked", "bulk / serve-replicated"},
	{"core.ms_per_iteration_p50", "ms", "lower", "write_ranked", "bulk / serve-replicated"},
	{"core.affected_frac_p50", "ratio", "lower", "write_ranked", "bulk / serve-replicated"},
	{"core.versions_per_refresh", "count", "higher", "catchup", "bulk / serve-replicated"},
	{"core.sweep_blocks", "count", "lower", "write_ranked", "bulk / serve-replicated"},
	{"core.frontier_blocks", "count", "lower", "write_ranked", "bulk / serve-replicated"},

	{"wal.append_us_p50", "us", "lower", "write_visible", "serve-replicated only"},
	{"wal.append_us_tail", "us", "lower", "write_ranked tail", "serve-replicated only"},
	{"wal.fsync_ms_p50", "ms", "lower", "write_visible", "serve-replicated only"},
	{"wal.bytes_per_record", "bytes", "lower", "write_visible", "serve-replicated only"},
	{"wal.checkpoint_ms_p50", "ms", "lower", "write_ranked tail", "serve-replicated only"},

	{"repl.lag_ms_p50", "ms", "lower", "replica_visible", "serve-replicated only"},
	{"repl.lag_ms_tail", "ms", "lower", "replica_visible, read_tail", "serve-replicated only"},
	{"repl.lag_records_max", "count", "lower", "replica_visible", "serve-replicated only"},
	{"repl.replica_refresh_ms_p50", "ms", "lower", "replica_visible, read_tail", "serve-replicated only"},

	{"keymap.resolve_ns_p50", "ns", "lower", "read_p50, write_visible", "serve-replicated only"},
	{"keymap.keys_interned", "count", "higher", "read_p50, write_visible", "serve-replicated only"},

	{"view.topk_first_us_p50", "us", "lower", "read_tail", "bulk / serve-replicated"},
	{"view.scoreof_ns_p50", "ns", "lower", "read_p50", "bulk only"},

	{"serve.apply_ms_p50", "ms", "lower", "write_visible", "serve-replicated only"},
	{"serve.apply_ms_tail", "ms", "lower", "write_visible", "serve-replicated only"},
	{"serve.read_server_ms_p50", "ms", "lower", "read_p50", "serve-replicated only"},
	{"serve.rejected", "count", "lower", "failed ops", "serve-replicated only"},

	{"go.gc_cycles", "count", "lower", "every _tail, retained_heap_mb", "serve-replicated / bulk"},
	{"go.gc_pause_ms_total", "ms", "lower", "every _tail", "serve-replicated / bulk"},
	{"go.alloc_mb_per_s", "MB/s", "lower", "every _tail, retained_heap_mb", "serve-replicated / bulk"},
	{"go.cpu_util", "ratio", "lower", "every _tail", "serve-replicated / bulk"},

	{"loadgen.late_tail_ms", "ms", "lower", "benchmark health", "all"},
	{"loadgen.failed_frac", "ratio", "lower", "benchmark health", "all"},
	{"trace.overhead_frac", "ratio", "lower", "benchmark health", "all"},
	{"trace.coverage", "ratio", "higher", "benchmark health", "all"},
}

// reported is one metric value as printed, with its sample count and, for
// a tail, the percentile it reports.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Pct     float64 `json:"percentile,omitempty"`
}

// endToEndMetrics assembles the untraced run's metrics, tails included.
func (r *run) endToEndMetrics() map[string]reported {
	p := r.measured
	out := map[string]reported{}
	put := func(name string, v float64, n int, pct float64) {
		out[name] = reported{Value: v, Unit: unitOf(name), Samples: n, Pct: pct}
	}
	pair := func(prefix, suffix string, s *samples) {
		sum := summarize(s)
		put(prefix+"_p50_"+suffix, sum.P50, sum.N, 50)
		put(prefix+"_tail_"+suffix, sum.Tail, sum.N, sum.TailPct)
	}
	put("setup_s", median(r.setup), len(r.setup), 50)
	pair("write_visible", "ms", &p.visible)
	pair("write_ranked", "ms", &p.ranked)
	pair("read", "us", &p.reads)
	pair("replica_visible", "ms", &p.replica)
	put("catchup_edits_per_s", median(r.catchup), len(r.catchup), 50)
	put("retained_heap_mb", r.heapMB, 1, 0)
	return out
}

// layerMetrics assembles the traced run's metrics from its spans, the
// engines' counters over the traced phase, and the replay (which already
// filled some of r.layers).
func (r *run) layerMetrics() map[string]reported {
	p, L := r.measured, r.layers
	span := func(name string, unit time.Duration) summary { return summarize(r.tr.durations(name, unit, nil)) }
	// Per-write spans of the steady phase only: the catch-up backlogs queue
	// behind each other by design.
	steady := func(op int) bool { return op < r.in.nSteady }
	writeSpan := func(name string, unit time.Duration) summary {
		return summarize(r.tr.durations(name, unit, steady))
	}
	both := func(prefix string, s summary) {
		L[prefix+"_p50"] = s.P50
		L[prefix+"_tail"] = s.Tail
	}
	L["dfpr.submit_us_p50"] = writeSpan("dfpr.Submit", time.Microsecond).P50
	both("dfpr.visible_wait_ms", writeSpan("dfpr.Ticket.Wait", time.Millisecond))
	both("dfpr.rank_wait_ms", writeSpan("dfpr.WaitRanked", time.Millisecond))
	L["dfpr.view_us_p50"] = span("dfpr.View", time.Microsecond).P50
	dRounds := float64(p.stats1.IngestRounds - p.stats0.IngestRounds)
	dRefresh := float64(p.stats1.Refreshes + p.stats1.Rebuilds - p.stats0.Refreshes - p.stats0.Rebuilds)
	L["dfpr.edits_per_round"] = ratio(float64(p.stats1.CoalescedEdits-p.stats0.CoalescedEdits), dRounds)
	L["dfpr.rounds_per_refresh"] = ratio(dRounds, dRefresh)
	L["dfpr.queue_edits_max"] = float64(r.queueMax)
	L["dfpr.publish_to_ranked_ms_p50"] = 1e3 * bucketQuantile(histDiff(p.met0, p.met1, "dfpr_publish_to_ranked_seconds"), 0.5)

	L["batch.merge_us_p50"] = span("batch.Merge", time.Microsecond).P50
	both("snapshot.apply_ms", span("snapshot.Apply", time.Millisecond))
	both("core.refresh_ms", span("core.RefreshTrace", time.Millisecond))
	counter := func(name string) float64 { return p.met1.Sum(name) - p.met0.Sum(name) }
	L["core.sweep_blocks"] = ratio(counter("dfpr_rank_sweep_block_scheduled_total"), dRefresh)
	L["core.frontier_blocks"] = ratio(counter("dfpr_rank_sweep_block_frontier_total"), dRefresh)

	both("wal.append_us", span("wal.Append", time.Microsecond))
	L["wal.checkpoint_ms_p50"] = span("wal.WriteCheckpoint", time.Millisecond).P50

	if r.w.served {
		lag := &samples{}
		for _, op := range r.subOrder {
			if r.seqs[op] != 0 && op < r.in.nSteady && r.repAt[op] != 0 {
				lag.add(ms(r.repAt[op] - r.visAt[op]))
			}
		}
		both("repl.lag_ms", summarize(lag))
		L["repl.lag_records_max"] = float64(r.lagMax)
		L["repl.replica_refresh_ms_p50"] = 1e3 * bucketQuantile(histDiff(p.rmet0, p.rmet1, "dfpr_rank_refresh_seconds"), 0.5)
		L["keymap.keys_interned"] = float64(p.keys1 - p.keys0)
		reads := addBuckets(
			histDiff(p.met0, p.met1, "dfpr_http_request_seconds", `endpoint="rank"`),
			histDiff(p.met0, p.met1, "dfpr_http_request_seconds", `endpoint="topk"`),
			histDiff(p.rmet0, p.rmet1, "dfpr_http_request_seconds", `endpoint="rank"`),
			histDiff(p.rmet0, p.rmet1, "dfpr_http_request_seconds", `endpoint="topk"`))
		L["serve.read_server_ms_p50"] = 1e3 * bucketQuantile(reads, 0.5)
	}
	L["keymap.resolve_ns_p50"] = span("keymap.Resolve", time.Nanosecond).P50
	L["view.topk_first_us_p50"] = span("topk.Select", time.Microsecond).P50
	L["view.scoreof_ns_p50"] = span("view.ScoreOf", time.Nanosecond).P50
	both("serve.apply_ms", writeSpan("serve.apply", time.Millisecond))
	L["serve.rejected"] = float64(r.rejected.Load())

	wall := p.wall.Seconds()
	L["go.gc_cycles"] = float64(p.mem1.NumGC - p.mem0.NumGC)
	L["go.gc_pause_ms_total"] = float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6
	L["go.alloc_mb_per_s"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20) / wall
	L["go.cpu_util"] = (p.cpu1 - p.cpu0).Seconds() / wall / float64(runtime.NumCPU())

	L["loadgen.late_tail_ms"] = summarize(&p.late).Tail
	L["loadgen.failed_frac"] = ratio(float64(r.failed.Load()), float64(r.attempted.Load()))
	t, u := &p.traced, &p.latencies
	L["trace.overhead_frac"] = median([]float64{
		ratio(summarize(&t.visible).P50, summarize(&u.visible).P50) - 1,
		ratio(summarize(&t.ranked).P50, summarize(&u.ranked).P50) - 1,
		ratio(summarize(&t.reads).P50, summarize(&u.reads).P50) - 1,
	})

	out := map[string]reported{}
	for _, m := range perLayer {
		out[m.name] = reported{Value: L[m.name], Unit: m.unit}
	}
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, tails} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
