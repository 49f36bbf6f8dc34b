package main

// Clock kinds: which clock a metric is read on. A host metric is what the
// simulator costs us and jitters with the machine; a sim metric is what
// the modeled pilot system would take and is bit-identical per seed; a
// count is an exact tally and is bit-identical per seed too.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

// Metric sources: how a number is obtained.
const (
	srcEndToEnd = "e2e"    // untraced timed repetitions
	srcTraced   = "traced" // one extra repetition with wrappers and recorder on
	srcLadder   = "ladder" // a layer's exported functions timed in isolation
	srcRuntime  = "runtime"
)

// metricDef is one named metric of the benchmark. Names are global: one
// name means the same thing on every workload that reports it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	// Floor is the absolute worsening below which -selfcheck calls no
	// breach, in the metric's unit (the driver's schema has no floor).
	Floor  float64
	Clock  string
	Source string
	// Moves records, before anything was measured, which end-to-end metric
	// on which workload this metric should move (README "How they interact").
	Moves string
}

// workloadDef names one workload, its fixed per-repetition size and why it
// is in the set.
type workloadDef struct {
	Name string
	Op   string // what one op is
	Why  string
	run  func(e *repEnv) (*repOutcome, error)
	// explainNS prices one repetition from a traced run's metrics: Σ(traced
	// count × ladder unit cost), in host nanoseconds.
	explainNS func(m map[string]float64, ops int64) float64
}

// workloads is the registry, in the order `-workload all` runs them.
var workloads = []workloadDef{
	{
		Name:      "stream-repl3",
		Op:        "one 64 B message handled exactly once",
		Why:       "E13 topology on a 4-shard replication-3 cluster with a mid-run shard loss: the replication plane does most of the work, so the replication tax must show here",
		run:       func(e *repEnv) (*repOutcome, error) { return runStream(e, true) },
		explainNS: streamExplainNS("streaming.cluster.publish_r3_ns_per_msg"),
	},
	{
		Name:      "stream-repl1",
		Op:        "one 64 B message handled exactly once",
		Why:       "same producers, consumers and rebalances on a 1-shard replication-1 cluster: bypasses replication, so a replication change predicts no move here; a log/fetch/commit/group change moves both",
		run:       func(e *repEnv) (*repOutcome, error) { return runStream(e, false) },
		explainNS: streamExplainNS("streaming.cluster.publish_r1_ns_per_msg"),
	},
	{
		Name:      "pilot-backlog",
		Op:        "one compute unit reaching Done",
		Why:       "4000 units submitted at once onto 20 pilots over five backends, no streaming: plan.Plan, core.Manager, saga/infra and vclock sleep/advance do the work, at deep queue depth",
		run:       runPilotBacklog,
		explainNS: pilotExplainNS,
	},
	{
		Name:      "mapreduce-wordcount",
		Op:        "one input word counted",
		Why:       "compute-dominated and off-token: map/combine/encode/decode/group kernels do the work, the scheduler almost none; the bypass workload for every vclock/streaming/plan change",
		run:       runWordcount,
		explainNS: wordcountExplainNS,
	},
	{
		Name:      "chaos-fuzz",
		Op:        "one chaos seed finishing with every invariant held and a replay-stable state hash",
		Why:       "the same layers used differently: small publishes and fetches, retried units, outages, shard loss, torn replication, worker churn, recorder on; a bulk-path gain that costs the fault paths shows here",
		run:       runChaosFuzz,
		explainNS: chaosExplainNS,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is the list of end-to-end metrics, reported by every workload
// on every untraced run. Bounds are the share of the parent's median a
// metric may worsen by before it counts as a regression. One bound serves
// every workload, so each was set from the workload on which the metric is
// noisiest: at least three times the widest quartile spread seen over ten
// seeds on the reference box (README "Reference numbers").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, Clock: clockHost, Source: srcEndToEnd,
		Moves: "testbed, cluster/topic, pilots, corpus + Data.Put, up to the first timed op, ÷ the run's median host-speed index; work moved out of the timed region lands here"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: clockHost, Source: srcEndToEnd,
		Moves: "ops ÷ median over the repetitions of (wall ÷ the host-speed index read around that repetition)"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.25, Clock: clockHost, Source: srcEndToEnd,
		Moves: "MemStats.Mallocs delta over the timed repetitions ÷ ops"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.12, Clock: clockHost, Source: srcEndToEnd,
		Moves: "MemStats.TotalAlloc delta over the timed repetitions ÷ ops"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Clock: clockHost, Source: srcEndToEnd,
		Moves: "VmHWM of the benchmark process at exit"},
	{Name: "sim_makespan_s", Unit: "s", Better: "lower", Bound: 0.12, Clock: clockSim, Source: srcEndToEnd,
		Moves: "modeled seconds from first submit/publish to last op done; identical per seed, so at a fixed seed any move is a schedule change"},
}

// perLayer is the list of per-layer metrics, reported by every workload on
// a traced run (zero where a layer is not on the workload's path).
var perLayer = []metricDef{
	// vclock
	{Name: "vclock.decisions_per_op", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-repl3 (runner park/wake per batch), pilot-backlog, chaos-fuzz; flat on mapreduce-wordcount"},
	{Name: "vclock.stalls", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "nonzero means the world waited on an external signal; should stay 0 everywhere"},
	{Name: "vclock.sleep_advance_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog and chaos-fuzz (unit runtimes, pacing sleeps)"},
	{Name: "vclock.event_park_wake_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on stream-repl3 (quorum-ack parks, runner wakes), pilot-backlog, chaos-fuzz"},
	{Name: "vclock.notifier_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog (dispatch kick) and stream-* (WaitProcessed)"},
	{Name: "vclock.sem_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog (slot accounting)"},
	{Name: "vclock.compute_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on mapreduce-wordcount and stream-* (PureHandler batches); the only vclock cost that matters on mapreduce-wordcount"},
	{Name: "vclock.go_spawn_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog (one participant per unit attempt)"},
	{Name: "vclock.decision_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on chaos-fuzz (recorder on): host ns per recorded scheduling decision"},

	// streaming, traced
	{Name: "streaming.bus.publish_calls", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* (fixed cost per call)"},
	{Name: "streaming.bus.publish_msgs", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "equals ops on stream-*"},
	{Name: "streaming.bus.publish_blocked_sim_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on stream-* (backpressure and quorum-ack waits)"},
	{Name: "streaming.bus.fetch_calls", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* equally"},
	{Name: "streaming.bus.fetch_msgs", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "equals ops on stream-*"},
	{Name: "streaming.bus.fetch_empty_frac", Unit: "frac", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* equally (wasted polls: interrupted by a rebalance)"},
	{Name: "streaming.bus.msgs_per_fetch", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* equally (amortization of the per-call cost)"},
	{Name: "streaming.bus.fetch_blocked_sim_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on stream-* only"},
	{Name: "streaming.bus.commit_calls", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* equally"},
	{Name: "streaming.bus.commit_host_ns_per_call", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on stream-* (Commit never parks, so outside timing is exact)"},
	{Name: "streaming.cluster.handoffs", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "sim_makespan_s on stream-repl3; 0 on stream-repl1"},
	{Name: "streaming.cluster.repairs", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-repl3 (truncate and re-stream after the shard loss)"},
	{Name: "streaming.cluster.acked_advances", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s and allocs_per_op on stream-repl3"},
	{Name: "streaming.cluster.acked_advances_per_publish_call", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s and allocs_per_op on stream-repl3; predicted flat on stream-repl1"},
	{Name: "streaming.cluster.replica_lag_max_msgs", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on stream-repl3; 0 on stream-repl1"},
	{Name: "streaming.cluster.resident_bytes_max", Unit: "B", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "peak_rss_mb on stream-*"},
	{Name: "streaming.cluster.under_replicated_end", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "should be 0 after the drain on stream-repl3"},
	{Name: "streaming.group.rebalances", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "fixed at 2 on stream-*; a change is a schedule change"},
	{Name: "streaming.group.handler_calls", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "equals ops on stream-*"},
	{Name: "streaming.group.sim_latency_p50_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on stream-* only"},
	{Name: "streaming.group.sim_latency_p95_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on stream-* only"},
	{Name: "streaming.group.sim_throughput_msg_s", Unit: "1/s", Better: "higher", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on stream-* only"},

	// streaming, ladder
	{Name: "streaming.broker.publish_values_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on both stream-* equally"},
	{Name: "streaming.broker.publish_keyed_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "no workload publishes keyed batches in bulk; guards the PublishBatch path"},
	{Name: "streaming.broker.fetch_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on both stream-* equally"},
	{Name: "streaming.broker.commit_ns_per_call", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on both stream-* equally, chaos-fuzz"},
	{Name: "streaming.broker.trim_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on both stream-* (retention trims behind every persisted commit)"},
	{Name: "streaming.cluster.publish_r1_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on stream-repl1"},
	{Name: "streaming.cluster.publish_r2_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "between r1 and r3: shows whether the tax is per follower or per quorum"},
	{Name: "streaming.cluster.publish_r3_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "minus publish_r1: throughput_ops_s and allocs_per_op on stream-repl3; predicted flat on stream-repl1"},
	{Name: "streaming.cluster.failshard_host_ms", Unit: "ms", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on stream-repl3 (once per rep) and chaos-fuzz (once per seed)"},
	{Name: "streaming.offsets.save_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on both stream-* (one save per commit, drives retention)"},
	{Name: "streaming.group.handler_ns_per_msg", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "the benchmark's own payload-fold handler; the floor under throughput_ops_s on stream-* that no product change moves"},

	// plan
	{Name: "plan.tick_ns_pending10", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on chaos-fuzz (queues ≤ 24 units)"},
	{Name: "plan.tick_ns_pending1e3", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog only"},
	{Name: "plan.tick_ns_pending1e5", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog only (scaling of the full-queue rescan)"},
	{Name: "plan.admit_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "core.submit_units_host_s on pilot-backlog"},
	{Name: "plan.note_failure_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on chaos-fuzz (retried units)"},
	{Name: "plan.shard_replicas_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on stream-* (placement at CreateTopic) and the handoff on stream-repl3"},
	{Name: "plan.divergence_point_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on stream-repl3 and chaos-fuzz (per catch-up round)"},
	{Name: "plan.detect_drift_ns_units1e3", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog (reconciler every 30 modeled seconds)"},
	{Name: "plan.dispatched", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "equals unit attempts on pilot-backlog; more means retries"},

	// core / saga
	{Name: "core.submit_units_host_s", Unit: "s", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on pilot-backlog (inside the timed region)"},
	{Name: "core.units_done", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "equals ops on pilot-backlog"},
	{Name: "core.units_failed", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "failed ops on pilot-backlog"},
	{Name: "core.attempts_per_unit", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s and sim_makespan_s on pilot-backlog"},
	{Name: "core.select_pilot_calls", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "equals binds on pilot-backlog"},
	{Name: "core.select_pilot_host_ns_per_call", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on pilot-backlog (policy cost per bind)"},
	{Name: "core.sim_turnaround_p50_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on pilot-backlog"},
	{Name: "core.sim_turnaround_p95_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on pilot-backlog"},
	{Name: "core.sim_waiting_p50_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on pilot-backlog"},
	{Name: "core.pilot_startup_sim_p50_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on pilot-backlog (queue wait before capacity arrives)"},
	{Name: "core.queue_depth_peak", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on pilot-backlog (Plan rescans this many units per tick)"},
	{Name: "core.queue_depth_sum", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on pilot-backlog: Σ pending depth over unit completions, the rescan work Plan does"},
	{Name: "core.unit_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog and chaos-fuzz (the shallow-queue use of the layer)"},
	{Name: "core.dispatch_tick_ns_pending1e3", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog only: one dispatch pass over 1000 pending units through the manager's real executor (plan.tick_ns_pending1e3 plus Candidates over 20 pilots)"},
	{Name: "experiments.testbed_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s everywhere; throughput_ops_s on chaos-fuzz (one testbed per seed)"},
	{Name: "core.submit_pilot_host_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on pilot-backlog"},
	{Name: "saga.local_job_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on stream-* and pilot-backlog"},
	{Name: "saga.hpc_job_roundtrip_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on pilot-backlog, throughput_ops_s on chaos-fuzz (supervisor resubmits)"},

	// mapreduce / data / dist
	{Name: "mapreduce.map_tasks", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "fixed at 16 on mapreduce-wordcount"},
	{Name: "mapreduce.reduce_tasks", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "fixed at 8 on mapreduce-wordcount"},
	{Name: "mapreduce.sim_map_phase_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on mapreduce-wordcount"},
	{Name: "mapreduce.sim_reduce_phase_s", Unit: "s", Better: "lower", Clock: clockSim, Source: srcTraced,
		Moves: "sim_makespan_s on mapreduce-wordcount"},
	{Name: "mapreduce.map_kernel_host_s", Unit: "s", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s and alloc_bytes_per_op on mapreduce-wordcount only"},
	{Name: "mapreduce.reduce_kernel_host_s", Unit: "s", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on mapreduce-wordcount only (combiner and reducer calls)"},
	{Name: "mapreduce.framework_host_s", Unit: "s", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on mapreduce-wordcount: Run wall minus the kernels' share at full parallelism (sort, encode, decode, group, data service)"},
	{Name: "mapreduce.collect_host_s", Unit: "s", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "throughput_ops_s on mapreduce-wordcount"},
	{Name: "mapreduce.shuffle_kvs", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on mapreduce-wordcount: pairs leaving the combiners, each encoded, decoded and grouped once"},
	{Name: "mapreduce.encode_ns_per_kv", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s and alloc_bytes_per_op on mapreduce-wordcount only"},
	{Name: "mapreduce.decode_ns_per_kv", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s and alloc_bytes_per_op on mapreduce-wordcount only"},
	{Name: "mapreduce.group_ns_per_kv", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on mapreduce-wordcount only"},
	{Name: "data.put_host_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on mapreduce-wordcount"},
	{Name: "dist.uint64_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on mapreduce-wordcount"},
	{Name: "dist.lognormal_sample_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on stream-* (one cost-jitter draw per batch), chaos-fuzz (unit costs)"},
	{Name: "dist.named_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "throughput_ops_s on pilot-backlog (one named child per unit attempt)"},
	{Name: "dist.split_label_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "core.submit_units_host_s on pilot-backlog (unit and retry streams)"},
	{Name: "dist.zipf_ns", Unit: "ns", Better: "lower", Clock: clockHost, Source: srcLadder,
		Moves: "setup_s on mapreduce-wordcount (one draw per corpus word)"},

	// chaos
	{Name: "chaos.faults_planned_per_seed", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "fixed by the fault mix on chaos-fuzz"},
	{Name: "chaos.faults_hit_per_seed", Unit: "count", Better: "higher", Clock: clockCount, Source: srcTraced,
		Moves: "coverage of chaos-fuzz: faults that found a victim"},
	{Name: "chaos.violations", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "failed ops on chaos-fuzz"},
	{Name: "chaos.default_mix_violations", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "the known commit-skew × shard-loss cursor-rewind seeds, on the full default mix the timed workload leaves commit-skew out of"},
	{Name: "chaos.decisions_per_seed", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on chaos-fuzz"},
	{Name: "chaos.rebalances_per_seed", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "throughput_ops_s on chaos-fuzz (worker churn)"},
	{Name: "chaos.units_failed", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "units that exhausted their retry budget under the fault plan on chaos-fuzz"},

	// cross-cutting
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "throughput_ops_s on stream-* (garbage per message at millions of messages per second)"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "throughput_ops_s on stream-* and mapreduce-wordcount"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "peak_rss_mb everywhere"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "peak_rss_mb on pilot-backlog (one goroutine per running unit)"},
	{Name: "runtime.procs1_slowdown", Unit: "ratio", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "rep wall at GOMAXPROCS=1 ÷ rep wall at GOMAXPROCS=NumCPU: ≈ NumCPU on mapreduce-wordcount, ≈ 1 elsewhere"},
	{Name: "host.speed_index", Unit: "ratio", Better: "lower", Clock: clockHost, Source: srcRuntime,
		Moves: "the calibration kernel's time ÷ its reference time, median over the run: the host, not the program; setup_s and throughput_ops_s are divided by it"},
	{Name: "host.raw_throughput_ops_s", Unit: "1/s", Better: "higher", Clock: clockHost, Source: srcRuntime,
		Moves: "ops ÷ median repetition wall, not divided by the index: throughput_ops_s × host.speed_index, what this host delivered"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Clock: clockHost, Source: srcTraced,
		Moves: "traced rep wall ÷ untraced median − 1"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Clock: clockCount, Source: srcTraced,
		Moves: "spans kept in memory by the traced rep"},
	{Name: "attrib.explained_frac", Unit: "frac", Better: "higher", Clock: clockHost, Source: srcTraced,
		Moves: "Σ(traced count × ladder unit cost) ÷ rep wall: how much of the wall the ladder accounts for"},
}
