package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gopilot/internal/chaos"
	"gopilot/internal/core"
	"gopilot/internal/metrics"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// MillionMessages is E13, the scale exhibit for the streaming data
// plane: n messages (10⁶ in the driver) through an 8-partition topic on a
// 3-shard federated cluster (replication 3 — every shard holds every
// partition's log), consumed by a consumer group that starts at 4
// workers, grows to 5 mid-run, and shrinks back — two live rebalances —
// while per-partition MaxInflightBytes backpressure throttles the
// producer to consumer speed. Publishes acknowledge only at the quorum
// watermark, so the producer's pace is also the replication plane's. At
// the halfway mark the shard leading partition 0 is failed: its
// partitions fence, hand off to surviving replicas, and the deposed
// logs' unacknowledged suffixes are truncated and re-streamed, all in
// virtual time. Group offsets persist to the cluster's KV, so retention
// continuously trims the log below the committed low-watermark —
// resident bytes stay bounded however long the stream runs.
//
// The chaos invariant suite (chaos.Checker) watches the run, cheap
// enough to leave on under the benchmark gate: exactly-once in-order
// delivery (Handled in the handler), commit marks that only advance and
// stay gapless (OnCommit), the acknowledged watermark advancing
// monotonically without gaps (OnAcked), and replica logs free of
// divergence after the drain (CheckReplicas). E13 adds its own
// "resident-bound": resident bytes stay under the retention contract's
// bound at every retention instant (OnRetention). The table's
// invariants cell counts the violations; it is bit-identical per seed
// (BenchmarkStreaming_Million pins the wall-time and allocation
// budget).
func MillionMessages(seed int64, n int) (*metrics.Table, error) {
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: seed})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	const (
		shards     = 3
		partitions = 8
		workers    = 4
		payloadLen = 64
		segSize    = 4096
		inflight   = 256 << 10 // ≈4k in-flight messages per partition
		pubBatch   = 4096
	)
	checker := chaos.NewChecker(tb.Clock, partitions)
	var residentMax atomic.Int64
	// The retention contract's bound: uncommitted in-flight bytes (capped
	// by backpressure, or one full publish batch admitted into an idle
	// partition), plus at most one unsealed segment of committed-but-not-
	// yet-trimmed messages behind the low-watermark.
	const residentBound = inflight + pubBatch*payloadLen + segSize*payloadLen

	cluster := streaming.NewCluster(streaming.ClusterConfig{
		Name: "million", Shards: shards, Replication: 3,
		HandoffDelay: 100 * time.Millisecond,
		// 50k msg/s per partition: the producer alone could saturate the
		// topic at 400k msg/s, so the consumers are the bottleneck and
		// backpressure is what paces the run.
		AppendCost:       20 * time.Microsecond,
		FetchLatency:     time.Millisecond,
		SegmentSize:      segSize,
		MaxInflightBytes: inflight,
		Clock:            tb.Clock,
		OnCommit:         checker.OnCommit,
		OnAcked:          checker.OnAcked,
		OnRetention: func(_ string, _ int, resident, _ int64) {
			for {
				cur := residentMax.Load()
				if resident <= cur || residentMax.CompareAndSwap(cur, resident) {
					break
				}
			}
			if resident > residentBound {
				checker.Violate("resident-bound", "%d resident bytes exceed %d", resident, residentBound)
			}
		},
	})
	defer cluster.Close()
	const topic = "million"
	if err := cluster.CreateTopic(topic, partitions); err != nil {
		return nil, err
	}
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "mm", Resource: "local://localhost", Cores: workers + 2, Walltime: 2 * time.Hour,
	}); err != nil {
		return nil, err
	}

	group, err := streaming.StartGroup(ctx, mgr, cluster, streaming.GroupConfig{
		Name: "mm", Topic: topic, Workers: workers, BatchSize: 2048,
		// 100µs modeled per message: each partition drains at 10k msg/s,
		// 5× slower than it fills, so the producer spends most of the run
		// blocked on backpressure.
		CostPerMessage: 100 * time.Microsecond,
		PureHandler:    true,
		Offsets:        cluster.Offsets(),
		Stream:         tb.Root.Named("streaming/group/mm"),
		Handler: func(_ context.Context, _ core.TaskContext, m streaming.Message) error {
			var acc byte // pure CPU: fold the payload
			for _, b := range m.Value {
				acc ^= b
			}
			if acc == 0xFF {
				return fmt.Errorf("poisoned payload at offset %d", m.Offset)
			}
			checker.Handled(m.Partition, m.Offset)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// Bulk producer on its own participant: 4096-message batches through
	// the zero-alloc PublishValues path, blocking in modeled time
	// whenever a partition's in-flight bound is hit.
	var produceRate float64
	var produceErr error
	done := vclock.NewEvent(tb.Clock)
	tb.Go(func() {
		defer done.Fire()
		produceRate, produceErr = streaming.ProduceBatched(ctx, cluster, topic, n, 0, payload, pubBatch)
	})

	// Two live rebalances at deterministic progress points: a fifth
	// worker joins at one quarter, leaves at three quarters.
	if err := group.WaitProcessed(ctx, int64(n/4)); err != nil {
		return nil, fmt.Errorf("drained %d/%d before join: %w", group.Processed(), n, err)
	}
	joined, err := group.AddWorker()
	if err != nil {
		return nil, err
	}
	// Halfway: fail the shard leading partition 0. Its partitions fence,
	// hand off to surviving replicas after the election delay, and
	// re-replicate onto recruits — delivery and commits must stay exact.
	if err := group.WaitProcessed(ctx, int64(n/2)); err != nil {
		return nil, fmt.Errorf("drained %d/%d before shard loss: %w", group.Processed(), n, err)
	}
	victim, err := cluster.LeaderOf(topic, 0)
	if err != nil {
		return nil, err
	}
	if err := cluster.FailShard(victim); err != nil {
		return nil, err
	}
	if err := group.WaitProcessed(ctx, int64(3*n/4)); err != nil {
		return nil, fmt.Errorf("drained %d/%d before leave: %w", group.Processed(), n, err)
	}
	if err := group.RemoveWorker(joined); err != nil {
		return nil, err
	}
	if err := group.WaitProcessed(ctx, int64(n)); err != nil {
		return nil, fmt.Errorf("drained %d/%d: %w", group.Processed(), n, err)
	}
	if !done.Wait(ctx) {
		return nil, ctx.Err()
	}
	if produceErr != nil {
		return nil, produceErr
	}
	group.Stop()

	checker.CheckReplicas(cluster, topic)
	invariants := "ok"
	if v := len(checker.Violations()); v > 0 {
		invariants = fmt.Sprintf("VIOLATED(%d)", v)
	}
	lat := group.LatencyStats()
	t := metrics.NewTable(
		fmt.Sprintf("E13 — million-message data plane (%d msgs, %d partitions on %d shards −1 mid-run, group %d→%d→%d workers)",
			n, partitions, shards, workers, workers+1, workers),
		"messages", "partitions", "shards", "handoffs", "workers", "rebalances",
		"produce_rate_msg_s", "throughput_msg_s", "latency_p50_s", "latency_p95_s",
		"resident_max_b", "repairs", "invariants")
	t.AddRow(group.Processed(), partitions, len(cluster.LiveShards()), cluster.Handoffs(),
		len(group.Members()), group.Rebalances(),
		fmt.Sprintf("%.0f", produceRate),
		fmt.Sprintf("%.0f", group.Throughput()),
		fmt.Sprintf("%.3f", lat.Median),
		fmt.Sprintf("%.3f", lat.P95),
		residentMax.Load(), cluster.Repairs(), invariants)
	return t, nil
}
