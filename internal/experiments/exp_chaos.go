package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/chaos"
	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// This file is E13's chaos-enabled variant: the full stack — two
// managers (a streaming consumer group on a local pilot, a batch
// workload on HPC/HTC/cloud pilots kept alive by supervisors) — run
// under a seed-driven fault plan while the chaos invariant suite watches
// continuously. The scenario is the reproduction vehicle of the chaos
// workflow: a seed that breaks an invariant replays bit-identically, its
// schedule records in vclock, and cmd/chaosreplay bisects it.

// ChaosOptions parameterizes the chaos scenario. The zero value runs the
// default fault mix at seed 0.
type ChaosOptions struct {
	// Seed is the experiment root seed; the fault plan and every workload
	// draw derive from it.
	Seed int64
	// Faults overrides the fault mix; a nil Counts map takes the default
	// mix (DefaultChaosFaults). Chaos draws live on the root's
	// "chaos"/... subtree, so any mix leaves workload draws untouched.
	Faults chaos.Config
	// ZeroFaults keeps the full chaos wiring (engine, checker, recorder)
	// but compiles an empty plan — the insensitivity baseline.
	ZeroFaults bool
	// BarrierBug enables the deliberate barrier-carry defect
	// (streaming.GroupConfig.PlantBarrierCarry) so tests can prove the invariant
	// suite catches it. Never set outside tests/cmd/chaosreplay.
	BarrierBug bool
	// HandoffBug enables the deliberate stale-handoff defect
	// (streaming.ClusterConfig.PlantStaleHandoff): a shard-loss promotion restores
	// the commit mark from the promoted shard's stale lazily-replicated
	// local mark (cursor-rewind) and skips divergence repair on deposed
	// replicas (diverged-replica-after-repair). Never set outside
	// tests/cmd/chaosreplay.
	HandoffBug bool
	// MaxFaults truncates the compiled plan to its first MaxFaults faults
	// (the bisection probe): 0 keeps the full plan, negative keeps none.
	MaxFaults int
	// Recorder configures schedule recording (defaults apply; recording
	// is always on).
	Recorder vclock.RecorderConfig
	// Messages is the number of produced stream messages (default 1500).
	Messages int
	// Units is the batch workload size (default 24).
	Units int
	// CostPerMessage is the group's modeled per-message handling cost
	// (default 5ms). Raising it keeps workers mid-batch more of the time,
	// which is what churn-sensitive defects need to manifest.
	CostPerMessage time.Duration
}

// DefaultChaosFaults is the standard fault mix: every kind at its
// weight in the fault table (chaos.Kind.Weight), over a 4-minute horizon.
func DefaultChaosFaults() chaos.Config {
	counts := map[chaos.Kind]int{}
	for k := chaos.Kind(0); k < chaos.NumKinds; k++ {
		counts[k] = k.Weight()
	}
	return chaos.Config{Horizon: 4 * time.Minute, Counts: counts}
}

// ChaosReport is the scenario outcome.
type ChaosReport struct {
	Seed       int64
	Plan       chaos.Plan
	Injected   []chaos.Applied
	Violations []chaos.Violation
	Produced   int
	Processed  int
	UnitsDone  int
	UnitsFail  int
	Rebalances int
	// Replication is the cluster's replicated-log counters at quiescence.
	Replication streaming.Stats
	// Executor is the clock's participant counters at quiescence.
	Executor vclock.Stats
	// StateHash fingerprints the terminal state (unit states and
	// attempts, commit marks, processed count, rebalances, plan hash):
	// two same-seed runs must agree bit-for-bit.
	StateHash uint64
	// Schedule is the recorded decision trace, snapshotted at a fixed
	// point before teardown.
	Schedule vclock.RecorderState
}

// Ok reports whether every invariant held.
func (r *ChaosReport) Ok() bool { return len(r.Violations) == 0 }

// Chaos runs the chaos scenario: faults injected at exact modeled
// instants, with the schedule recorded.
func Chaos(opts ChaosOptions) (*ChaosReport, error) {
	if opts.Messages <= 0 {
		opts.Messages = 1500
	}
	if opts.Units <= 0 {
		opts.Units = 24
	}
	if opts.CostPerMessage <= 0 {
		opts.CostPerMessage = 5 * time.Millisecond
	}
	if opts.Faults.Counts == nil {
		opts.Faults = DefaultChaosFaults()
	}
	if opts.ZeroFaults {
		opts.Faults.Counts = map[chaos.Kind]int{}
	}

	tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: opts.Seed})
	defer tb.Close()
	tb.Clock.StartRecorder(opts.Recorder)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const topic = "chaos-events"
	const parts = 4
	checker := chaos.NewChecker(tb.Clock, parts)
	plan := chaos.Compile(tb.Root, opts.Faults)
	if opts.MaxFaults != 0 {
		plan = plan.Truncate(max(opts.MaxFaults, 0))
	}

	// --- Streaming side: a 3-shard federated cluster + consumer group
	// on a local pilot. Offsets persist to the cluster's KV, so group
	// commits drive retention and shard handoffs find durable cursors.
	cluster := streaming.NewCluster(streaming.ClusterConfig{
		Name: "chaos", Shards: 3, Replication: 3, HandoffDelay: 2 * time.Second,
		AppendCost: time.Millisecond, FetchLatency: time.Millisecond,
		OnCommit: checker.OnCommit, OnAcked: checker.OnAcked, Clock: tb.Clock,
		PlantStaleHandoff: opts.HandoffBug,
	})
	defer cluster.Close()
	if err := cluster.CreateTopic(topic, parts); err != nil {
		return nil, err
	}
	mgrS := tb.NewManager(nil)
	if _, err := mgrS.SubmitPilot(core.PilotDescription{
		Name: "stream", Resource: "local://localhost", Cores: 12, Walltime: 4 * time.Hour,
	}); err != nil {
		return nil, err
	}
	group, err := streaming.StartGroup(ctx, mgrS, cluster, streaming.GroupConfig{
		Name: "chaos-group", Topic: topic, Workers: 3, BatchSize: 16,
		CostPerMessage: opts.CostPerMessage,
		Offsets:        cluster.Offsets(),
		Stream:         tb.Root.Named("streaming/group/chaos-group"),

		PlantBarrierCarry: opts.BarrierBug,
		Handler: func(_ context.Context, _ core.TaskContext, m streaming.Message) error {
			checker.Handled(m.Partition, m.Offset)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer group.Stop()

	// --- Batch side: HPC/HTC/cloud pilots under supervisors. ---
	mgrB := tb.NewManager(nil)
	descs := []core.PilotDescription{
		{Name: "hpc", Resource: "hpc://stampede", Cores: 16, Walltime: time.Hour,
			UnitPickupDelay: 300 * time.Millisecond},
		{Name: "htc", Resource: "htc://osg", Cores: 8, Walltime: time.Hour,
			UnitPickupDelay: 300 * time.Millisecond},
		{Name: "cloud", Resource: "cloud://ec2", Cores: 8, Walltime: time.Hour,
			UnitPickupDelay: 300 * time.Millisecond},
	}
	supCtx, supCancel := context.WithCancel(ctx)
	defer supCancel()
	supWG := vclock.NewGroup(tb.Clock)
	for _, d := range descs {
		d := d
		supWG.Add(1)
		// Supervisors model the resubmission loop of a resilient client:
		// when a pilot dies (crash, walltime) it is replaced; when the
		// backend is down, submission retries after a backoff — the path
		// that proves outages are survivable, not fatal.
		tb.Go(func() {
			defer supWG.Done()
			for supCtx.Err() == nil {
				p, err := mgrB.SubmitPilot(d)
				if err != nil {
					if !tb.Clock.Sleep(supCtx, 15*time.Second) {
						return
					}
					continue
				}
				p.Wait(supCtx)
				if !tb.Clock.Sleep(supCtx, 10*time.Second) {
					return
				}
			}
		})
	}
	for i := 0; i < opts.Units; i++ {
		if _, err := mgrB.SubmitUnit(core.UnitDescription{
			Name: fmt.Sprintf("batch-%d", i), Cores: 1, MaxRetries: 4,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				cost := dist.LogNormalFrom(tc.Stream.Named("cost"), 20, 0.5).Sample()
				if !tc.Sleep(ctx, time.Duration(cost*float64(time.Second))) {
					return ctx.Err()
				}
				return nil
			},
		}); err != nil {
			return nil, err
		}
	}
	// --- Producer, paced to span the fault horizon. ---
	rate := float64(opts.Messages) / (opts.Faults.Horizon.Seconds() * 0.75)
	prodDone := vclock.NewEvent(tb.Clock)
	var prodErr error
	tb.Go(func() {
		defer prodDone.Fire()
		_, prodErr = streaming.ProduceBatched(ctx, cluster, topic, opts.Messages, rate, []byte("event-payload"), 64)
	})

	// --- Chaos engine. ---
	livePilots := func() []*core.Pilot {
		var out []*core.Pilot
		for _, p := range mgrB.Pilots() {
			if !p.State().Terminal() {
				out = append(out, p)
			}
		}
		return out
	}
	engine := chaos.NewEngine(plan, chaos.Targets{
		Clock: tb.Clock,
		Backends: []chaos.Backend{
			{Name: "stampede", Faults: tb.HPCA.Faults(), OnRecover: mgrB.Kick},
			{Name: "osg", Faults: tb.HTC.Faults(), OnRecover: mgrB.Kick},
			{Name: "ec2", Faults: tb.Cloud.Faults(), OnRecover: mgrB.Kick},
		},
		LivePilots: livePilots,
		Storm:      tb.HTC.Storm,
		Topic:      topic,
		Group:      group,
		Cluster:    cluster,
	})
	engDone := vclock.NewEvent(tb.Clock)
	var injected []chaos.Applied
	tb.Go(func() {
		defer engDone.Fire()
		injected = engine.Run(ctx)
	})

	// --- Watchdog: poll until the workload quiesces or the deadline. ---
	// The poll sleeps in virtual time, so even a stranded barrier (the
	// deliberate bug's deadlock mode) keeps the executor live and lands at
	// the deadline instead of hanging.
	deadline := tb.Clock.Now().Add(opts.Faults.Horizon + 10*time.Minute)
	quiesced := func() bool {
		if !prodDone.Fired() || !engDone.Fired() {
			return false
		}
		if checker.HandledCount() < opts.Messages {
			return false
		}
		for _, u := range mgrB.Units() {
			if !u.State().Terminal() {
				return false
			}
		}
		// Replication must drain too: every follower caught up, no recruit
		// still syncing — otherwise the replica-consistency check below
		// would race the catch-up streams it is meant to judge.
		return cluster.UnderReplicated() == 0
	}
	for !quiesced() {
		if tb.Clock.Now().After(deadline) {
			checker.Violate("liveness",
				"workload not quiesced %v past fault horizon: processed %d/%d",
				10*time.Minute, checker.HandledCount(), opts.Messages)
			break
		}
		tb.Clock.Sleep(ctx, 5*time.Second)
	}
	if prodErr != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("chaos: producer: %w", prodErr)
	}
	supCancel()
	supWG.Wait()

	// --- Final invariants, after drift reconciliation settles. ---
	// Two passes: the first detects and corrects any residual drift, the
	// second proves the correction converged (anti-flap: a second scan
	// after the fault cleared must find nothing).
	mgrB.ReconcileOnce()
	mgrB.ReconcileOnce()
	checker.CheckUnits(mgrB.Units())
	checker.CheckPilots(mgrB.Pilots())
	checker.CheckBarrier(group)
	checker.CheckCompleteness(opts.Messages)
	checker.CheckPlacement(cluster)
	checker.CheckReplicas(cluster, topic)

	report := &ChaosReport{
		Seed:        opts.Seed,
		Plan:        plan,
		Injected:    injected,
		Violations:  checker.Violations(),
		Produced:    opts.Messages,
		Processed:   checker.HandledCount(),
		Rebalances:  group.Rebalances(),
		Replication: cluster.Stats(),
		Executor:    tb.Clock.Stats(),
	}
	for _, u := range mgrB.Units() {
		switch u.State() {
		case core.UnitDone:
			report.UnitsDone++
		case core.UnitFailed:
			report.UnitsFail++
		}
	}
	report.StateHash = chaosStateHash(report, mgrB, cluster)
	// Snapshot the schedule at this fixed pre-teardown point so two runs
	// compare traces of identical extent.
	report.Schedule = tb.Clock.RecorderState()
	return report, nil
}

// chaosStateHash folds the terminal state into one comparable word.
func chaosStateHash(r *ChaosReport, mgr *core.Manager, c *streaming.Cluster) uint64 {
	h := r.Plan.Hash()
	mix := func(v uint64) {
		h ^= v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	mix(uint64(r.Processed))
	mix(uint64(r.UnitsDone)<<32 | uint64(uint32(r.UnitsFail)))
	mix(uint64(r.Rebalances))
	for _, u := range mgr.Units() {
		mix(uint64(u.State())<<32 | uint64(uint32(u.Attempts())))
	}
	placement := c.Placement()
	for _, pl := range placement {
		if mark, err := c.Committed(pl.Topic, pl.Partition); err == nil {
			mix(uint64(mark))
		}
		mix(uint64(pl.Oldest))  // retention floor: trims must land identically
		mix(uint64(pl.AckedHW)) // quorum watermark: replication must land identically
	}
	mix(uint64(c.Handoffs()))
	for _, pl := range placement {
		mix(uint64(pl.Epoch)<<32 | uint64(uint32(pl.Leader)))
	}
	mix(uint64(len(r.Violations)))
	return h
}
