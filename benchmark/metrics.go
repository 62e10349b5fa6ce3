package main

// metricDef names one number the benchmark reports. The two tables below
// are the single source of the names: BENCHMARK.json is checked against them
// by a test, the README glossary is written from them, and later issues cite
// them verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	Src    string  // per-layer only: T traced/in-process, S server scrape delta, C client side, D derived
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd are the numbers a user of the served SAG would see. Every one is
// defined, and never zero, on all four workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "access_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "access_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger: one or more numbers per module, each with the
// end-to-end metric it is expected to move.
var perLayer = []metricDef{
	{Name: "server.handler_us", Unit: "us", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op, access_p50_ms on all; largest share on emr_mix_durable"},
	{Name: "server.json_decode_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on emr_mix_durable"},
	{Name: "server.json_encode_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on emr_mix_durable"},
	{Name: "server.socket_overhead_us", Unit: "us", Better: "lower", Src: "D", Moves: "access_p50_ms on all (client.access_p50_raw_ms minus handler p50)"},
	{Name: "server.http_request_us", Unit: "us", Better: "lower", Src: "S", Moves: "access_p50_ms on all"},
	{Name: "server.lock_wait_us_per_op", Unit: "us", Better: "lower", Src: "S", Moves: "access_p90_ms, client.access_p99_ms on lifecycle_recover"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower", Src: "S", Moves: "server_cpu_us_per_op on all"},
	{Name: "server.alloc_bytes_per_op", Unit: "B", Better: "lower", Src: "S", Moves: "server_cpu_us_per_op, server_rss_mb on all"},
	{Name: "server.gc_cycles", Unit: "count", Better: "lower", Src: "S", Moves: "server_cpu_us_per_op, access_p90_ms on all"},
	{Name: "server.gc_pause_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "access_p90_ms, client.access_p99_ms on all"},
	{Name: "server.cpu_us_per_op_raw", Unit: "us", Better: "lower", Src: "C", Moves: "server_cpu_us_per_op as measured, before speed normalisation"},
	{Name: "server.drain_s", Unit: "s", Better: "lower", Src: "C", Moves: "none (SIGTERM to exit; snapshots every tenant when durable)"},
	{Name: "server.non2xx_total", Unit: "count", Better: "lower", Src: "S", Moves: "must be 0"},

	{Name: "admit.admit_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on emr_mix_durable only (off elsewhere)"},
	{Name: "admit.queue_wait_us_per_op", Unit: "us", Better: "lower", Src: "S", Moves: "access_p90_ms, client.access_p99_ms on emr_mix_durable only"},
	{Name: "admit.queued_total", Unit: "count", Better: "lower", Src: "S", Moves: "access_p90_ms, client.access_p99_ms on emr_mix_durable only"},
	{Name: "admit.shed_total", Unit: "count", Better: "lower", Src: "S", Moves: "must be 0"},

	{Name: "shard.resolve_hit_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "access_p50_ms on emr_mix_durable"},
	{Name: "shard.create_us", Unit: "us", Better: "lower", Src: "C", Moves: "setup_s on all"},
	{Name: "shard.tenants_active", Unit: "count", Better: "lower", Src: "S", Moves: "context (workload tenants plus default)"},

	{Name: "alerts.evaluate_benign_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on emr_mix_durable"},
	{Name: "alerts.evaluate_alert_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on alerts_mem"},

	{Name: "history.estimate_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on alerts_mem"},
	{Name: "history.estimate_us_server", Unit: "us", Better: "lower", Src: "S", Moves: "server_cpu_us_per_op on alerts_mem"},

	{Name: "dist.inverse_mean_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "as game.sse_us"},

	{Name: "game.sse_us", Unit: "us", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op, ops_per_s, access_p50_ms on alerts_mem; CPU only on alerts_durable; nothing on emr_mix_durable"},
	{Name: "game.sse_seq_us", Unit: "us", Better: "lower", Src: "T", Moves: "as game.sse_us (the gap to it is the pool fan-out cost)"},
	{Name: "game.sse_allocs", Unit: "count", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on alerts_mem"},
	{Name: "game.sse_us_server", Unit: "us", Better: "lower", Src: "S", Moves: "as game.sse_us"},
	{Name: "game.lp_solves_per_decision", Unit: "count", Better: "lower", Src: "S", Moves: "as game.sse_us (exact count)"},

	{Name: "lp.solve_us", Unit: "us", Better: "lower", Src: "T", Moves: "via game.sse_us"},
	{Name: "lp.simplex_iterations_per_solve", Unit: "count", Better: "lower", Src: "S", Moves: "via game.sse_us (exact count)"},
	{Name: "lp.pivots_per_solve", Unit: "count", Better: "lower", Src: "S", Moves: "via game.sse_us (exact count)"},

	{Name: "signaling.closed_form_ns", Unit: "ns", Better: "lower", Src: "T", Moves: "none today (a guard)"},
	{Name: "signaling.lp_us", Unit: "us", Better: "lower", Src: "T", Moves: "none today (the LP (3) reference)"},
	{Name: "signaling.stage_us_server", Unit: "us", Better: "lower", Src: "S", Moves: "none today (a guard)"},

	{Name: "core.process_us", Unit: "us", Better: "lower", Src: "T", Moves: "ops_per_s, server_cpu_us_per_op on alerts_mem"},
	{Name: "core.process_allocs", Unit: "count", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on alerts_mem"},
	{Name: "core.commit_self_us", Unit: "us", Better: "lower", Src: "T", Moves: "server_cpu_us_per_op on alerts_mem (the core.process span minus its estimate and solve children)"},
	{Name: "core.decision_us_server", Unit: "us", Better: "lower", Src: "S", Moves: "access_p50_ms on alerts_mem, alerts_durable"},
	{Name: "core.commit_retries_total", Unit: "count", Better: "lower", Src: "S", Moves: "server_cpu_us_per_op (0 while one connection owns a tenant)"},
	{Name: "core.stale_commits_total", Unit: "count", Better: "lower", Src: "S", Moves: "0 while one connection owns a tenant"},
	{Name: "core.coalesced_total", Unit: "count", Better: "higher", Src: "S", Moves: "0 with the cache off"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Src: "S", Moves: "0 with the cache off"},
	{Name: "core.fallback_total", Unit: "count", Better: "lower", Src: "S", Moves: "must be 0"},

	{Name: "wal.append_always_us", Unit: "us", Better: "lower", Src: "T", Moves: "access_p50_ms, ops_per_s on the durable three"},
	{Name: "wal.append_interval_us", Unit: "us", Better: "lower", Src: "T", Moves: "none (the policy the workloads do not use)"},
	{Name: "wal.append_none_us", Unit: "us", Better: "lower", Src: "T", Moves: "none (append cost without the fsync)"},
	{Name: "wal.snapshot_write_ms", Unit: "ms", Better: "lower", Src: "T", Moves: "lifecycle.snapshot_ms on lifecycle_recover"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower", Src: "T", Moves: "lifecycle.recovery_s on lifecycle_recover"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher", Src: "T", Moves: "lifecycle.recovery_s on lifecycle_recover"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Src: "S", Moves: "access_p50_ms, ops_per_s on the durable three"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower", Src: "S", Moves: "access_p50_ms, ops_per_s on the durable three"},
	{Name: "wal.appends_per_fsync", Unit: "count", Better: "higher", Src: "S", Moves: "ops_per_s on the durable three (group-commit yield)"},
	{Name: "wal.snapshot_bytes", Unit: "B", Better: "lower", Src: "S", Moves: "lifecycle.snapshot_ms, wal.bytes_per_op on lifecycle_recover"},
	{Name: "wal.segments_end", Unit: "count", Better: "lower", Src: "C", Moves: "wal.bytes_per_op on lifecycle_recover"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower", Src: "C", Moves: "journal bytes on disk at the end per acknowledged mutation; 0 on alerts_mem"},

	{Name: "replica.catchup_s", Unit: "s", Better: "lower", Src: "C", Moves: "reported only; must not move lifecycle.recovery_s"},
	{Name: "replica.records_per_s", Unit: "1/s", Better: "higher", Src: "C", Moves: "reported only"},
	{Name: "replica.lag_records_end", Unit: "count", Better: "lower", Src: "C", Moves: "must be 0"},

	{Name: "retain.pruned_segments_total", Unit: "count", Better: "higher", Src: "C", Moves: "wal.bytes_per_op on lifecycle_recover (at least one per tenant there)"},
	{Name: "retain.journal_bytes_end", Unit: "B", Better: "lower", Src: "C", Moves: "wal.bytes_per_op on the durable three"},
	{Name: "retain.blocked_507_total", Unit: "count", Better: "lower", Src: "S", Moves: "must be 0"},

	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "client.access_p99_ms on emr_mix_durable (a scrape shares the box)"},
	{Name: "obs.series_total", Unit: "count", Better: "lower", Src: "S", Moves: "obs.scrape_ms"},

	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "context: how late the open-loop generator sent (emr_mix_durable)"},
	{Name: "client.slo_rate_per_s", Unit: "1/s", Better: "higher", Src: "C", Moves: "highest offered rate with raw p99 <= 10 ms, no failure, no growing backlog (emr_mix_durable)"},
	{Name: "client.access_p50_ms_at_500", Unit: "ms", Better: "lower", Src: "C", Moves: "context for access_p50_ms on emr_mix_durable"},
	{Name: "client.access_p50_ms_at_2000", Unit: "ms", Better: "lower", Src: "C", Moves: "context for access_p50_ms on emr_mix_durable"},
	{Name: "client.access_p999_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "context for client.access_p99_ms"},
	{Name: "client.access_max_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "context for client.access_p99_ms"},
	{Name: "client.stalls_over_20ms", Unit: "count", Better: "lower", Src: "C", Moves: "snapshots and compaction show here, never in a median"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower", Src: "C", Moves: "context: the generator's own CPU, to show it is not the bottleneck"},
	{Name: "client.probe_us", Unit: "us", Better: "lower", Src: "C", Moves: "context: the speed probe's CPU per answer, median over slices; 7.5 at the reference speed"},
	{Name: "client.speed_ratio", Unit: "ratio", Better: "higher", Src: "C", Moves: "context: box speed during the run relative to the reference (reference probe / probe)"},
	{Name: "client.ops_per_s_raw", Unit: "1/s", Better: "higher", Src: "C", Moves: "ops_per_s as measured, before speed normalisation"},
	{Name: "client.access_p50_raw_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "access_p50_ms as measured, before speed normalisation"},
	{Name: "client.access_p90_raw_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "access_p90_ms as measured, before speed normalisation"},
	{Name: "client.access_p99_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "the noisy tail (ISSUE 11's access_p99_ms): p99 of the pooled latencies of the quieter 3/4 of the slices, same scope and normalisation as access_p50_ms"},
	{Name: "client.access_p99_raw_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "client.access_p99_ms as measured, before speed normalisation"},
	{Name: "client.failed_ratio", Unit: "ratio", Better: "lower", Src: "C", Moves: "must be 0 (transport errors, non-2xx, failed checks, sheds over attempted)"},

	{Name: "setup.build_s", Unit: "s", Better: "lower", Src: "C", Moves: "setup_s"},
	{Name: "setup.boot_to_ready_s", Unit: "s", Better: "lower", Src: "C", Moves: "setup_s, lifecycle.recovery_s"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower", Src: "C", Moves: "setup_s"},
	{Name: "setup.world_s", Unit: "s", Better: "lower", Src: "T", Moves: "setup.boot_to_ready_s (the same world and curve fit, built in process)"},

	{Name: "lifecycle.recovery_s", Unit: "s", Better: "lower", Src: "C", Moves: "end-to-end on lifecycle_recover (bound 0.15): SIGKILL to every tenant answering"},
	{Name: "lifecycle.cycle_roll_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "end-to-end on lifecycle_recover (bound 0.15): close + new round trip"},
	{Name: "lifecycle.snapshot_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "end-to-end on lifecycle_recover (bound 0.15): POST /v1/admin/snapshot round trip"},

	{Name: "trace.explained_ratio", Unit: "ratio", Better: "higher", Src: "T", Moves: "share of the shadow request covered by layer spans"},
	{Name: "trace.shadow_vs_handler_ratio", Unit: "ratio", Better: "lower", Src: "T", Moves: "shadow path time over real handler time; outside 0.9-1.1 the shadow has drifted"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Src: "T", Moves: "traced over untraced shadow time"},
}

// issueBounds are the regression bounds ISSUE 11 gave the numbers that only
// exist on some workloads. The driver's contract wants every end-to-end
// metric defined and non-zero on every workload, so these ride in the ledger
// instead; -compare still holds them to their bounds.
var issueBounds = map[string]float64{
	"lifecycle.recovery_s":    0.15,
	"lifecycle.cycle_roll_ms": 0.15,
	"lifecycle.snapshot_ms":   0.15,
	"wal.bytes_per_op":        0.01,
}

func findMetric(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
