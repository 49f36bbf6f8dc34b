package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// The E13 topology (experiments.MillionMessages), restated so the harness
// can choose the cluster shape and wrap what it is handed.
const (
	streamPartitions = 8
	streamWorkers    = 4
	streamPayloadLen = 64
	streamSegSize    = 4096
	streamInflight   = 256 << 10
	streamPubBatch   = 4096
	streamFetchBatch = 2048
	// The retention contract's bound, as E13 states it: uncommitted
	// in-flight bytes, plus one publish batch admitted into an idle
	// partition, plus one unsealed segment behind the low-watermark.
	streamResidentBound = streamInflight + streamPubBatch*streamPayloadLen + streamSegSize*streamPayloadLen
	// Per-batch cost jitter (lognormal, mean 1). E13 itself runs with
	// none; here it is what makes the modeled schedule depend on --seed.
	streamCostCV = 0.1
)

// streamPayload is the 64 B message body every batch carries.
func streamPayload() []byte {
	payload := make([]byte, streamPayloadLen)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	return payload
}

// foldPayload is the consumer's pure CPU kernel.
func foldPayload(value []byte) byte {
	var acc byte
	for _, b := range value {
		acc ^= b
	}
	return acc
}

// runStream is one repetition of stream-repl3 (replicated: 4 shards,
// replication 3, the shard leading partition 0 failed at the halfway
// mark) or stream-repl1 (1 shard, replication 1, no loss). Producers,
// consumers, sizes and the two rebalances are identical.
func runStream(e *repEnv, replicated bool) (*repOutcome, error) {
	n := e.sizes.StreamMessages
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, QueueWaitMean: 5, Seed: e.seed})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Inline invariants, the ones E13 leaves on under its benchmark gate.
	// Each slot is touched only under per-partition ownership; the
	// atomics are -race hygiene, not contended synchronization.
	var violations, ackedAdvances, residentMax atomic.Int64
	var nextOffset, commitMark, ackedMark [streamPartitions]int64
	var notes []string
	violate := func(format string, args ...any) {
		if violations.Add(1) == 1 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}

	shards, replication := 1, 1
	if replicated {
		shards, replication = 4, 3
	}
	cluster := streaming.NewCluster(streaming.ClusterConfig{
		Name: "bench", Shards: shards, Replication: replication,
		HandoffDelay:     100 * time.Millisecond,
		AppendCost:       20 * time.Microsecond,
		FetchLatency:     time.Millisecond,
		SegmentSize:      streamSegSize,
		MaxInflightBytes: streamInflight,
		Clock:            tb.Clock,
		OnCommit: func(_ string, p int, from, through int64) {
			if from != atomic.LoadInt64(&commitMark[p]) || through <= from {
				violate("commit on partition %d starts at %d, last mark was %d", p, from, atomic.LoadInt64(&commitMark[p]))
			}
			atomic.StoreInt64(&commitMark[p], through)
		},
		OnAcked: func(_ string, p int, from, to int64) {
			ackedAdvances.Add(1)
			if !atomic.CompareAndSwapInt64(&ackedMark[p], from, to) || to <= from {
				violate("watermark on partition %d moved %d→%d, last was %d", p, from, to, atomic.LoadInt64(&ackedMark[p]))
			}
		},
		OnRetention: func(_ string, p int, resident, _ int64) {
			for {
				cur := residentMax.Load()
				if resident <= cur || residentMax.CompareAndSwap(cur, resident) {
					break
				}
			}
			if resident > streamResidentBound {
				violate("partition %d holds %d resident bytes, bound %d", p, resident, streamResidentBound)
			}
		},
	})
	defer cluster.Close()
	const topic = "bench"
	if err := cluster.CreateTopic(topic, streamPartitions); err != nil {
		return nil, err
	}
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "stream", Resource: "local://localhost", Cores: streamWorkers + 2, Walltime: 2 * time.Hour,
	}); err != nil {
		return nil, err
	}

	// Traced: hand the group and the producer a wrapped Bus.
	var bus streaming.Bus = cluster
	var tbus *tracedBus
	var lagMax int64
	runSpan := 0
	if e.tr != nil {
		tb.Virtual.StartRecorder(vclock.RecorderConfig{})
		runSpan = e.tr.open(0, "stream.run", simNanos(tb.Clock))
		tbus = &tracedBus{Bus: cluster, tr: e.tr, parent: runSpan}
		tbus.sample = func() {
			for _, pl := range cluster.Placement() {
				lagMax = max(lagMax, pl.Lag)
			}
		}
		bus = tbus
	}

	group, err := streaming.StartGroup(ctx, mgr, bus, streaming.GroupConfig{
		Name: "bench", Topic: topic, Workers: streamWorkers, BatchSize: streamFetchBatch,
		CostPerMessage: 100 * time.Microsecond,
		CostCV:         streamCostCV,
		PureHandler:    true,
		Offsets:        cluster.Offsets(),
		Stream:         tb.Root.Named("streaming/group/bench"),
		Handler: func(_ context.Context, _ core.TaskContext, m streaming.Message) error {
			if foldPayload(m.Value) == 0xFF {
				return fmt.Errorf("poisoned payload at offset %d", m.Offset)
			}
			// Exactly once, in order: this delivery must be the
			// partition's expected next offset.
			if !atomic.CompareAndSwapInt64(&nextOffset[m.Partition], m.Offset, m.Offset+1) {
				violate("partition %d delivered offset %d, expected %d", m.Partition, m.Offset, atomic.LoadInt64(&nextOffset[m.Partition]))
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	payload := streamPayload()

	if !e.startTimed() {
		group.Stop()
		return nil, nil
	}
	simStart := tb.Clock.Now()
	var produceErr error
	done := vclock.NewEvent(tb.Clock)
	tb.Go(func() {
		defer done.Fire()
		_, produceErr = streaming.ProduceBatched(ctx, bus, topic, n, 0, payload, streamPubBatch)
	})
	wait := func(target int, what string) error {
		if err := group.WaitProcessed(ctx, int64(target)); err != nil {
			return fmt.Errorf("drained %d/%d before %s: %w", group.Processed(), n, what, err)
		}
		return nil
	}
	// Two live rebalances at fixed progress points, and between them the
	// shard loss on the replicated cluster.
	if err := wait(n/4, "join"); err != nil {
		return nil, err
	}
	joined, err := group.AddWorker()
	if err != nil {
		return nil, err
	}
	if err := wait(n/2, "shard loss"); err != nil {
		return nil, err
	}
	if replicated {
		victim, err := cluster.LeaderOf(topic, 0)
		if err != nil {
			return nil, err
		}
		if err := cluster.FailShard(victim); err != nil {
			return nil, err
		}
	}
	if err := wait(3*n/4, "leave"); err != nil {
		return nil, err
	}
	if err := group.RemoveWorker(joined); err != nil {
		return nil, err
	}
	if err := wait(n, "end"); err != nil {
		return nil, err
	}
	if !done.Wait(ctx) {
		return nil, ctx.Err()
	}
	if produceErr != nil {
		return nil, produceErr
	}
	makespan := tb.Clock.Now().Sub(simStart)
	e.stopTimed()
	group.Stop()

	// Replica logs must agree with their leaders after the drain.
	for _, d := range cluster.CheckReplicaConsistency(topic) {
		violate("replica diverged: %s", d)
	}
	var handled int64
	dg := digest(0)
	dg.mixFloat(makespan.Seconds())
	for p := 0; p < streamPartitions; p++ {
		handled += atomic.LoadInt64(&nextOffset[p])
		mark, err := cluster.Committed(topic, p)
		if err != nil {
			return nil, err
		}
		dg.mix(uint64(mark))
	}
	dg.mix(uint64(cluster.Handoffs()))
	dg.mix(uint64(group.Rebalances()))

	out := &repOutcome{
		Attempted:   int64(n),
		Failed:      min(int64(n), int64(n)-handled+violations.Load()),
		SimMakespan: makespan.Seconds(),
		Digest:      uint64(dg),
		Notes:       notes,
	}
	lat := group.LatencyStats()
	out.Layer = map[string]float64{
		"streaming.cluster.handoffs":             float64(cluster.Handoffs()),
		"streaming.cluster.repairs":              float64(cluster.Repairs()),
		"streaming.cluster.acked_advances":       float64(ackedAdvances.Load()),
		"streaming.cluster.resident_bytes_max":   float64(residentMax.Load()),
		"streaming.cluster.under_replicated_end": float64(cluster.UnderReplicated()),
		"streaming.group.rebalances":             float64(group.Rebalances()),
		"streaming.group.handler_calls":          float64(group.Processed()),
		"streaming.group.sim_latency_p50_s":      lat.Median,
		"streaming.group.sim_latency_p95_s":      lat.P95,
		"streaming.group.sim_throughput_msg_s":   group.Throughput(),
	}
	if e.tr != nil {
		e.tr.close(runSpan, simNanos(tb.Clock))
		tbus.report(out.Layer)
		out.Layer["streaming.cluster.acked_advances_per_publish_call"] = float64(ackedAdvances.Load()) / float64(tbus.publishCalls)
		out.Layer["streaming.cluster.replica_lag_max_msgs"] = float64(lagMax)
		out.Layer["vclock.decisions_per_op"] = float64(tb.Virtual.RecorderState().Decisions) / float64(n)
		out.Layer["vclock.stalls"] = float64(tb.Virtual.Stalls())
	}
	return out, nil
}

// streamExplainNS prices a stream repetition from the ladder: every
// message published, fetched and folded (the fold at its best case, spread
// over GOMAXPROCS), every commit with its offset save, and one compute
// round trip per fetched batch.
func streamExplainNS(publishRung string) func(m map[string]float64, ops int64) float64 {
	return func(m map[string]float64, _ int64) float64 {
		return m["streaming.bus.publish_msgs"]*m[publishRung] +
			m["streaming.bus.fetch_msgs"]*m["streaming.broker.fetch_ns_per_msg"] +
			m["streaming.bus.commit_calls"]*(m["streaming.broker.commit_ns_per_call"]+m["streaming.offsets.save_ns"]) +
			m["streaming.group.handler_calls"]*m["streaming.group.handler_ns_per_msg"]/float64(runtime.GOMAXPROCS(0)) +
			m["streaming.bus.fetch_calls"]*m["vclock.compute_roundtrip_ns"]
	}
}
