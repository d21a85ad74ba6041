package main

// perLayer lists the per-layer metrics a traced run reports, by this
// repo's package names. How each is taken:
//
//	(I) interposed: a wrapper around an engine plug point, during the
//	    replay of a simulated workload. Times are self time per simulated
//	    fill ("ns/fill"), so they add up to the host cost of one fill.
//	(P) probe: the layer's public functions called in a timed loop; the
//	    same in every traced run, whatever the workload.
//	(C) counted at the client, or read from the server's stats or the
//	    simulation's result.
//
// A metric a workload cannot observe reads 0 there: the interposed ones
// on figure-grid and live-loopback (neither exposes the plug points),
// serve.* and the wall-clock ones on the simulated workloads,
// experiments.* everywhere but figure-grid.
var perLayer = []metricDef{
	// engine.clock — moves throughput on paper-day (about a quarter of a
	// fill); under 2 % on scale-peak.
	{Name: "engine.clock.schedules", Unit: "count", Better: "lower"},             // I
	{Name: "engine.clock.schedule_ns", Unit: "ns/fill", Better: "lower"},         // I
	{Name: "engine.clock.events_fired", Unit: "count", Better: "lower"},          // I
	{Name: "engine.clock.events_per_fill", Unit: "ratio", Better: "lower"},       // I
	{Name: "engine.clock.run_self_ns", Unit: "ns/fill", Better: "lower"},         // I: pops, cancelled-event drain
	{Name: "engine.clock.share", Unit: "ratio", Better: "lower"},                 // I: of time inside Run
	{Name: "engine.wallclock.schedule_cancel_ns", Unit: "ns", Better: "lower"},   // P
	{Name: "engine.wallclock.wakeup_lag_us", Unit: "us/wakeup", Better: "lower"}, // C live: smoothed lag, worst shard

	// engine.scheduler — most of scale-peak, a third of paper-day.
	{Name: "engine.scheduler.next_calls", Unit: "count", Better: "lower"},          // I
	{Name: "engine.scheduler.next_ns", Unit: "ns/fill", Better: "lower"},           // I
	{Name: "engine.scheduler.next_ns_max", Unit: "ns/call", Better: "lower"},       // I
	{Name: "engine.scheduler.next_nil_ratio", Unit: "ratio", Better: "lower"},      // I: calls with nothing to service
	{Name: "engine.scheduler.admit_remove_ns", Unit: "ns/fill", Better: "lower"},   // I
	{Name: "engine.scheduler.share", Unit: "ratio", Better: "lower"},               // I
	{Name: "engine.scheduler.deadline_index_ns_d25", Unit: "ns", Better: "lower"},  // P
	{Name: "engine.scheduler.deadline_index_ns_d700", Unit: "ns", Better: "lower"}, // P

	// engine.allocator — a few percent of paper-day.
	{Name: "engine.allocator.size_calls", Unit: "count", Better: "lower"},     // I
	{Name: "engine.allocator.size_ns", Unit: "ns/fill", Better: "lower"},      // I
	{Name: "engine.allocator.plansize_calls", Unit: "count", Better: "lower"}, // I
	{Name: "engine.allocator.plansize_ns", Unit: "ns/fill", Better: "lower"},  // I
	{Name: "engine.allocator.admit_calls", Unit: "count", Better: "lower"},    // I
	{Name: "engine.allocator.admit_denied", Unit: "count", Better: "lower"},   // I
	{Name: "engine.allocator.share", Unit: "ratio", Better: "lower"},          // I

	// engine.disk — the service loop itself: callbacks minus their
	// clock, scheduler, allocator and observer children.
	{Name: "engine.disk.callback_self_ns", Unit: "ns/fill", Better: "lower"}, // I
	{Name: "engine.disk.share", Unit: "ratio", Better: "lower"},              // I

	// engine.observer — the counts must repeat exactly for a seed.
	{Name: "engine.observer.callback_ns", Unit: "ns/fill", Better: "lower"},  // I
	{Name: "engine.observer.share", Unit: "ratio", Better: "lower"},          // I
	{Name: "engine.observer.admits", Unit: "count", Better: "higher"},        // I
	{Name: "engine.observer.defers", Unit: "count", Better: "lower"},         // I
	{Name: "engine.observer.rejects", Unit: "count", Better: "lower"},        // I
	{Name: "engine.observer.fills", Unit: "count", Better: "lower"},          // I
	{Name: "engine.observer.fill_completes", Unit: "count", Better: "lower"}, // I
	{Name: "engine.observer.starts", Unit: "count", Better: "higher"},        // I
	{Name: "engine.observer.stalls", Unit: "count", Better: "lower"},         // I
	{Name: "engine.observer.estimates", Unit: "count", Better: "lower"},      // I
	{Name: "engine.observer.estimate_hits", Unit: "count", Better: "higher"}, // I
	{Name: "engine.observer.underruns", Unit: "count", Better: "lower"},      // I
	{Name: "engine.observer.downgrades", Unit: "count", Better: "lower"},     // I
	{Name: "engine.observer.rate_switches", Unit: "count", Better: "lower"},  // I
	{Name: "engine.observer.departs", Unit: "count", Better: "higher"},       // I
	{Name: "engine.observer.fanout_ns", Unit: "ns", Better: "lower"},         // P: three no-op observers, one callback

	// buffer — about a seventh of a paper-day fill.
	{Name: "buffer.fill_cycle_ns_d25", Unit: "ns", Better: "lower"},  // P: BeginFill+CompleteFill+Level
	{Name: "buffer.fill_cycle_ns_d700", Unit: "ns", Better: "lower"}, // P
	{Name: "buffer.usage_ns_d25", Unit: "ns", Better: "lower"},       // P: Pool.Usage
	{Name: "buffer.usage_ns_d700", Unit: "ns", Better: "lower"},      // P
	{Name: "buffer.attach_detach_ns", Unit: "ns", Better: "lower"},   // P

	// diskmodel, catalog — a twentieth of a paper-day fill; set-up.
	{Name: "diskmodel.read_ns", Unit: "ns", Better: "lower"},      // P
	{Name: "catalog.disk_offset_ns", Unit: "ns", Better: "lower"}, // P
	{Name: "catalog.cylinder_at_ns", Unit: "ns", Better: "lower"}, // P
	{Name: "catalog.new_library_s", Unit: "s", Better: "lower"},   // P

	// core — set-up on scale-peak; tables rebuilt per cell on figure-grid.
	{Name: "core.table_size_ns", Unit: "ns", Better: "lower"},      // P
	{Name: "core.book_set_ns", Unit: "ns", Better: "lower"},        // P
	{Name: "core.table_build_s_n79", Unit: "s", Better: "lower"},   // P
	{Name: "core.table_build_s_n1599", Unit: "s", Better: "lower"}, // P

	// workload — set-up.
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},    // P
	{Name: "workload.requests", Unit: "count", Better: "higher"}, // P: the paper day's request count at this seed

	// sim, scale — simulated statistics, exact for a seed: they tell a
	// changed throughput from changed work.
	{Name: "sim.served", Unit: "count", Better: "higher"},                  // C
	{Name: "sim.rejected", Unit: "count", Better: "lower"},                 // C
	{Name: "sim.deferrals", Unit: "count", Better: "lower"},                // C
	{Name: "sim.max_concurrent", Unit: "count", Better: "higher"},          // C
	{Name: "sim.disk_utilization", Unit: "ratio", Better: "lower"},         // C: busiest disk
	{Name: "sim.startup_latency_mean_ms", Unit: "sim_ms", Better: "lower"}, // C: the paper's first headline
	{Name: "sim.peak_buffer_mb", Unit: "sim_MB", Better: "lower"},          // C: the paper's second headline
	{Name: "scale.peak_total", Unit: "count", Better: "higher"},            // C
	{Name: "sim.replay_equal", Unit: "count", Better: "higher"},            // C: replay reproduced sim.Run (1/0)

	// experiments — localises a figure-grid regression to governor,
	// share, cluster or ladder.
	{Name: "experiments.fig7.wall_s", Unit: "s/run", Better: "lower"},           // C
	{Name: "experiments.fig14.wall_s", Unit: "s/run", Better: "lower"},          // C
	{Name: "experiments.zipf-sharing.wall_s", Unit: "s/run", Better: "lower"},   // C
	{Name: "experiments.fleet-routing.wall_s", Unit: "s/run", Better: "lower"},  // C
	{Name: "experiments.qoe-downgrade.wall_s", Unit: "s/run", Better: "lower"},  // C
	{Name: "experiments.qoe-adaptation.wall_s", Unit: "s/run", Better: "lower"}, // C
	{Name: "experiments.parallel_efficiency", Unit: "ratio", Better: "higher"},  // C: cpu / (wall × workers)
	{Name: "experiments.golden_matches", Unit: "count", Better: "higher"},       // C: 5 at the default seed

	// serve, livemetrics — live-loopback's sessions/s and CPU per session.
	{Name: "serve.first_byte_p99_ms", Unit: "ms/session", Better: "lower"},   // C
	{Name: "serve.first_byte_p999_ms", Unit: "ms/session", Better: "lower"},  // C
	{Name: "serve.admit_rtt_p50_us", Unit: "us/session", Better: "lower"},    // C: WATCH write to OK line
	{Name: "serve.session_wall_p50_ms", Unit: "ms/session", Better: "lower"}, // C
	{Name: "serve.frames_per_session", Unit: "ratio", Better: "lower"},       // C
	{Name: "serve.delivery_mb_per_s", Unit: "MB/s", Better: "higher"},        // C
	{Name: "serve.busy_replies", Unit: "count", Better: "lower"},             // C
	{Name: "serve.underruns_per_1k", Unit: "ratio", Better: "lower"},         // C: timer jitter at this compression
	{Name: "serve.parse_command_ns", Unit: "ns", Better: "lower"},            // P
	{Name: "livemetrics.callback_ns", Unit: "ns", Better: "lower"},           // P: mean of admit/fill/start/depart
	{Name: "livemetrics.histogram_record_ns", Unit: "ns", Better: "lower"},   // P
	{Name: "livemetrics.jitter_comp_ms", Unit: "ms/shard", Better: "lower"},  // C: gauge, worst shard

	// Whole process, untraced: heap bytes allocated per op
	// (runtime.MemStats.TotalAlloc delta) — host memory churn.
	{Name: "process.alloc_b_per_op", Unit: "B", Better: "lower"}, // C

	// harness — how far to trust the split.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"}, // traced time per op / untraced
}
