package streaming

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// TestDivergenceRepairAfterHandoff drives the recovery protocol's repair
// path deterministically: a follower frozen mid-stream leaves the
// acknowledged watermark behind while the other follower keeps pace with
// the leader; killing the leader promotes the *lagging* follower (first
// in replica order), so the caught-up follower now holds a suffix the
// new leader never acknowledged — epoch-chain divergence. The catch-up
// runner must detect it, truncate the diverged suffix, re-stream the
// authoritative history, and leave both logs identical; the mid-publish
// producer's batch must survive via re-append to the new leader.
func TestDivergenceRepairAfterHandoff(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 50 * time.Millisecond,
		AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
		Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reps := placementOf(c, "t", 0).Replicas
	leader, f1, f2 := reps[0], reps[1], reps[2]

	// Freeze slot 0 (follower f1): the watermark pins at its log end.
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	var pubErr error
	pubDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer pubDone.Fire()
		pubErr = c.PublishValues(ctx, "t", [][]byte{{10}, {11}, {12}, {13}})
	})
	if !clock.Sleep(ctx, time.Second) {
		t.Fatal("sleep interrupted")
	}
	if pubDone.Fired() {
		t.Fatal("publish acknowledged without a full-quorum watermark")
	}
	if e := logEnd(c, "t", 0, leader); e != 9 {
		t.Fatalf("leader end = %d, want 9", e)
	}
	if e := logEnd(c, "t", 0, f2); e != 9 {
		t.Fatalf("follower f2 end = %d, want 9 (should keep pace)", e)
	}
	if e := logEnd(c, "t", 0, f1); e != 5 {
		t.Fatalf("frozen follower f1 end = %d, want 5", e)
	}
	if hw, _ := c.AckedOffset("t", 0); hw != 5 {
		t.Fatalf("acked = %d, want 5 (pinned by the frozen follower)", hw)
	}

	// Kill the leader: f1 (first surviving member) is promoted despite
	// lagging — its log already ends at the watermark. f2's [5,9) suffix
	// was never acknowledged and now carries a dead epoch.
	if err := c.FailShard(leader); err != nil {
		t.Fatal(err)
	}
	if nl, _ := c.LeaderOf("t", 0); nl != f1 {
		t.Fatalf("promoted leader = %d, want first surviving member %d", nl, f1)
	}
	// Resume replication into slot 0, which now addresses f2.
	if err := c.FreezeReplica("t", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !pubDone.Wait(ctx) {
		t.Fatal("publish never completed")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	deadline := clock.Now().Add(time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatal("replication never drained after the handoff")
		}
		clock.Sleep(ctx, 10*time.Millisecond)
	}
	if r := c.Repairs(); r < 1 {
		t.Fatalf("repairs = %d, want >= 1 (diverged suffix must be truncated and re-streamed)", r)
	}
	if d := c.CheckReplicaConsistency("t"); len(d) != 0 {
		t.Fatalf("replicas still diverged after repair: %v", d)
	}
	// Post-repair log identity: the repaired follower's log matches the
	// new leader's message for message, and the producer's batch landed
	// exactly once at [5,9).
	assertReplicaLogsIdentical(t, c, "t", 0)
	msgs, err := c.Fetch(ctx, "t", 0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("fetched %d messages past the watermark, want the re-appended 4", len(msgs))
	}
	for i, m := range msgs {
		if m.Offset != int64(5+i) || len(m.Value) != 1 || m.Value[0] != byte(10+i) {
			t.Fatalf("msg %d = offset %d value %v, want offset %d value [%d]",
				i, m.Offset, m.Value, 5+i, 10+i)
		}
	}
}

// TestStaleHandoffBugLeavesDivergedReplica proves the planted defect is
// observable at this layer: with the stale-handoff bug enabled, the same
// choreography as TestDivergenceRepairAfterHandoff must leave the
// deposed suffix in place — no repair runs and CheckReplicaConsistency
// reports the divergence.
func TestStaleHandoffBugLeavesDivergedReplica(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 50 * time.Millisecond,
		AppendCost: 10 * time.Microsecond, Clock: clock, PlantStaleHandoff: true,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reps := placementOf(c, "t", 0).Replicas
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	pubDone := vclock.NewEvent(clock)
	var pubErr error
	clock.Go(func() {
		defer pubDone.Fire()
		pubErr = c.PublishValues(ctx, "t", [][]byte{{10}, {11}, {12}, {13}})
	})
	if !clock.Sleep(ctx, time.Second) {
		t.Fatal("sleep interrupted")
	}
	if err := c.FailShard(reps[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.FreezeReplica("t", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !pubDone.Wait(ctx) {
		t.Fatal("publish never completed")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	deadline := clock.Now().Add(time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatal("replication never drained")
		}
		clock.Sleep(ctx, 10*time.Millisecond)
	}
	if r := c.Repairs(); r != 0 {
		t.Fatalf("repairs = %d with the repair-skipping defect enabled, want 0", r)
	}
	if d := c.CheckReplicaConsistency("t"); len(d) == 0 {
		t.Fatal("defect left no detectable divergence — the invariant has nothing to catch")
	}
}

// TestPublishSurvivesDoubleLeaderDeath pins the awaitAcked re-append across
// two leader deaths: the first handoff truncates the batch's un-acknowledged
// suffix [4,8), the re-append parks on the promoted leader's backpressure,
// and that leader dies under it. The retry must re-append the same suffix —
// not skip it a second time as if the prefix it already dropped were still
// in front — so the publish returns and every value lands exactly once.
func TestPublishSurvivesDoubleLeaderDeath(t *testing.T) {
	clock := vclocktest.Adopted(t)
	ctx := context.Background()
	c := NewCluster(ClusterConfig{
		Shards: 4, Replication: 3, HandoffDelay: 100 * time.Millisecond, SegmentSize: 4,
		CatchupBytesPerSec: 400, MaxInflightBytes: 600, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	at := func(d time.Duration) { // sleep to the absolute modeled instant d
		t.Helper()
		if !clock.Sleep(ctx, d-clock.Since(vclock.Epoch)) {
			t.Fatal("driver sleep interrupted")
		}
	}
	values := make([][]byte, 8)
	for i := range values {
		values[i] = make([]byte, 100)
		values[i][0] = byte(i)
	}
	var pubErr error
	pubDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer pubDone.Fire()
		pubErr = c.PublishValues(ctx, "t", values)
	})

	// 1.5s: one 400-byte segment per second per link, so the followers hold
	// [0,4) and the second batch is in flight.
	at(1500 * time.Millisecond)
	if hw, _ := c.AckedOffset("t", 0); hw != 4 {
		t.Fatalf("acked = %d at 1.5s, want 4", hw)
	}
	first, _ := c.LeaderOf("t", 0)
	if err := c.FailShard(first); err != nil {
		t.Fatal(err)
	}
	// 3s: the re-append of [4,8) is parked on the promoted leader's
	// backpressure (400 bytes in flight + 400 > 600), and the surviving
	// follower's runner is caught up and parked for data on it (the
	// recruit's is mid-stream).
	at(3 * time.Second)
	second, _ := c.LeaderOf("t", 0)
	lp := replicaLog(c, "t", 0, second)
	c.mu.Lock()
	space, waiting := len(lp.space), len(lp.waiters)
	c.mu.Unlock()
	if space != 1 || waiting != 1 {
		t.Fatalf("promoted leader holds %d space and %d data waiters at 3s, want 1 and 1", space, waiting)
	}
	if err := c.FailShard(second); err != nil {
		t.Fatal(err)
	}
	// Everything parked on the dead copy woke, saw it closed and re-routed:
	// the producer sits on the third leader's backpressure instead.
	c.mu.Lock()
	closed, space, waiting := lp.closed, len(lp.space), len(lp.waiters)
	c.mu.Unlock()
	if !closed || space != 0 || waiting != 0 {
		t.Fatalf("dead leader's copy: closed=%v with %d space and %d data waiters left, want closed and swept", closed, space, waiting)
	}
	for _, dead := range []int{first, second} {
		if replicaLog(c, "t", 0, dead) != nil {
			t.Fatalf("shard %d is dead but still holds a copy", dead)
		}
	}
	at(4 * time.Second)
	if pubDone.Fired() {
		t.Fatal("publish returned with its suffix un-appended")
	}
	if err := c.Commit("t", 0, 4); err != nil {
		t.Fatal(err)
	}
	at(20 * time.Second)
	if !pubDone.Fired() {
		hw, _ := c.AckedOffset("t", 0)
		t.Fatalf("publish still parked at 20s (acked = %d): the suffix was skipped twice", hw)
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	var got []byte
	for off := int64(0); off < 8; {
		msgs, err := c.Fetch(ctx, "t", 0, off, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			got = append(got, m.Value[0])
		}
		off += int64(len(msgs))
	}
	if end, _ := c.EndOffset("t", 0); end != 8 || string(got) != "\x00\x01\x02\x03\x04\x05\x06\x07" {
		t.Fatalf("log holds values %v up to offset %d, want 0..7 exactly once", got, end)
	}
	if n := c.UnderReplicated(); n != 0 {
		t.Fatalf("%d partitions under-replicated at 20s: a runner never re-routed", n)
	}
	assertReplicaLogsIdentical(t, c, "t", 0)
}

// TestPublishReappendsWhenAnotherProducerFillsItsRange pins the other half
// of the same hazard: after a handoff the watermark above the truncation
// point counts whatever was appended since, so it must not be read as "my
// batch is durable". Producer A's suffix [5,9) dies with the leader; the
// driver publishes B from the instant of the failure, so B sits ahead of A
// behind the fence and lands on the promoted leader at [5,9) first — where,
// the recruit still syncing, it is acknowledged at once. A must re-append
// behind it, not return on B's acknowledgement.
func TestPublishReappendsWhenAnotherProducerFillsItsRange(t *testing.T) {
	clock := vclocktest.Adopted(t)
	ctx := context.Background()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 2, HandoffDelay: 50 * time.Millisecond,
		AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze the one follower slot: the watermark pins at 5, and after the
	// handoff the recruit that takes the slot stays syncing.
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	var errA error
	doneA := vclock.NewEvent(clock)
	clock.Go(func() {
		defer doneA.Fire()
		errA = c.PublishValues(ctx, "t", [][]byte{{10}, {11}, {12}, {13}})
	})
	if !clock.Sleep(ctx, time.Second) {
		t.Fatal("sleep interrupted")
	}
	leader, _ := c.LeaderOf("t", 0)
	if err := c.FailShard(leader); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishValues(ctx, "t", [][]byte{{20}, {21}, {22}, {23}}); err != nil {
		t.Fatal(err)
	}
	if !doneA.Wait(ctx) {
		t.Fatal("publish A never completed")
	}
	if errA != nil {
		t.Fatal(errA)
	}
	msgs, err := c.Fetch(ctx, "t", 0, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, m := range msgs {
		got = append(got, m.Value[0])
	}
	if want := []byte{20, 21, 22, 23, 10, 11, 12, 13}; string(got) != string(want) {
		t.Fatalf("offsets 5.. hold %v, want %v: A returned on B's acknowledgement", got, want)
	}
}

// replicaLog is the tests' one way into a replica's log: shard's copy of
// topic[q], nil when the shard is not a member (or the partition does not
// exist). The product has no accessor for it.
func replicaLog(c *Cluster, topic string, q, shard int) *partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, q)
	if err != nil {
		return nil
	}
	return p.logs[shard]
}

// logEnd reads the next offset shard's copy of topic[q] will write.
func logEnd(c *Cluster, topic string, q, shard int) int64 {
	lp := replicaLog(c, topic, q, shard)
	c.mu.Lock()
	defer c.mu.Unlock()
	return lp.end
}

// placementOf picks one partition's entry (replica set leader first,
// epoch) out of the Placement snapshot; the zero value when it does not
// exist.
func placementOf(c *Cluster, topic string, q int) ShardPlacement {
	for _, pl := range c.Placement() {
		if pl.Topic == topic && pl.Partition == q {
			return pl
		}
	}
	return ShardPlacement{}
}

// assertReplicaLogsIdentical compares every follower's retained log
// against its leader's, message for message (offset, key, value, epoch
// chain), over the overlap of their retained ranges.
func assertReplicaLogsIdentical(t *testing.T, c *Cluster, topic string, part int) {
	t.Helper()
	reps := placementOf(c, topic, part).Replicas
	c.mu.Lock()
	defer c.mu.Unlock()
	p, _ := c.fedPartition(topic, part)
	lp := p.logs[reps[0]]
	lFirst, lEnd, _, lSpans := lp.Snapshot(nil)
	for _, f := range reps[1:] {
		fp := p.logs[f]
		fFirst, fEnd, _, fSpans := fp.Snapshot(nil)
		if fEnd != lEnd {
			t.Fatalf("shard %d log end %d != leader end %d", f, fEnd, lEnd)
		}
		if fmt.Sprint(fSpans) != fmt.Sprint(lSpans) {
			t.Fatalf("shard %d epoch chain %v != leader chain %v", f, fSpans, lSpans)
		}
		for o := max(lFirst, fFirst); o < lEnd; {
			// View serves one-segment views: walk both logs in steps.
			lMsgs, fMsgs := lp.View(o, 1024), fp.View(o, 1024)
			n := len(lMsgs)
			if len(fMsgs) < n {
				n = len(fMsgs)
			}
			if n == 0 {
				t.Fatalf("shard %d: no messages served at offset %d (leader %d, follower %d)",
					f, o, len(lMsgs), len(fMsgs))
			}
			for i := 0; i < n; i++ {
				lm, fm := lMsgs[i], fMsgs[i]
				if lm.Offset != fm.Offset || string(lm.Key) != string(fm.Key) || string(lm.Value) != string(fm.Value) {
					t.Fatalf("shard %d offset %d: message %+v != leader %+v", f, lm.Offset, fm, lm)
				}
			}
			o += int64(n)
		}
	}
}

// xorshift returns a per-seed deterministic draw in [0, n): seed-driven
// fault interleavings without math/rand (seed-audit rule 1).
func xorshift(seed int64) func(n int) int {
	rng := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	return func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
}

// replicationFaultStep applies one seed-driven action of the fault storm
// on topic "t": stretch or heal a random link, tear one replication
// stream, or resume every stream of a partition (a third of the draws do
// nothing).
func replicationFaultStep(t *testing.T, c *Cluster, next func(int) int, shards, parts, rf int) {
	t.Helper()
	switch next(6) {
	case 0: // stretch a random link
		a := next(shards)
		b := (a + 1 + next(shards-1)) % shards
		if err := c.SetLinkLag(a, b, float64(1+next(6))); err != nil {
			t.Fatal(err)
		}
	case 1: // heal a random link
		a := next(shards)
		b := (a + 1 + next(shards-1)) % shards
		if err := c.SetLinkLag(a, b, 1); err != nil {
			t.Fatal(err)
		}
	case 2: // tear one replication stream
		if err := c.FreezeReplica("t", next(parts), next(rf-1), true); err != nil {
			t.Fatal(err)
		}
	case 3: // resume every stream of a random partition
		p := next(parts)
		for s := 0; s < rf-1; s++ {
			if err := c.FreezeReplica("t", p, s, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// healAndDrainReplication resumes every stream of topic "t", heals every
// link, and waits (at most 5 modeled minutes) until no partition is
// under-replicated.
func healAndDrainReplication(t *testing.T, c *Cluster, clock *vclock.Virtual, shards, parts, rf int) {
	t.Helper()
	for p := 0; p < parts; p++ {
		for s := 0; s < rf-1; s++ {
			if err := c.FreezeReplica("t", p, s, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for a := 0; a < shards; a++ {
		for b := a + 1; b < shards; b++ {
			if err := c.SetLinkLag(a, b, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := clock.Now().Add(5 * time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatalf("replication lag never drained: %d partitions under-replicated", c.UnderReplicated())
		}
		clock.Sleep(context.Background(), 20*time.Millisecond)
	}
}

// TestReplicationFaultProperty is the randomized replication-fault
// property test: over 10 seeds, a producer streams through an RF-3
// cluster while link-lag windows, torn replication streams, and one
// leader loss land at seed-driven instants. Three properties must hold
// on every seed: the acknowledged watermark advances monotonically and
// gaplessly (checked inline via OnAcked), replication lag drains to zero
// once faults recover, and every replica log is identical to its
// leader's after the drain — divergence repaired, nothing torn. Run
// under -race in CI at GOMAXPROCS=4.
func TestReplicationFaultProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		shards = 3
		rf     = 3
		parts  = 2
		total  = 400
	)
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			next := xorshift(seed)

			var mu sync.Mutex
			lastAcked := make([]int64, parts)
			var ackViolations []string
			c := NewCluster(ClusterConfig{
				Shards: shards, Replication: rf, SegmentSize: 64,
				HandoffDelay: 20 * time.Millisecond,
				AppendCost:   10 * time.Microsecond,
				Clock:        clock,
				OnAcked: func(_ string, p int, from, to int64) {
					mu.Lock()
					if from != lastAcked[p] || to <= from {
						ackViolations = append(ackViolations,
							fmt.Sprintf("partition %d: acked moved %d->%d, last seen %d", p, from, to, lastAcked[p]))
					}
					lastAcked[p] = to
					mu.Unlock()
				},
			})
			defer c.Close()
			if err := c.CreateTopic("t", parts); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			var pubErr error
			pubDone := vclock.NewEvent(clock)
			clock.Go(func() {
				defer pubDone.Fire()
				payload := []byte("replicated-payload")
				sent := 0
				for sent < total {
					k := 1 + next(16)
					if k > total-sent {
						k = total - sent
					}
					values := make([][]byte, k)
					for i := range values {
						values[i] = payload
					}
					if pubErr = c.PublishValues(ctx, "t", values); pubErr != nil {
						return
					}
					sent += k
					if !clock.Sleep(ctx, time.Millisecond) {
						return
					}
				}
			})

			// Seed-driven fault storm, interleaved with the producer in
			// virtual time; one leader loss lands at a fixed op index.
			failed := false
			for op := 0; !pubDone.Fired(); op++ {
				replicationFaultStep(t, c, next, shards, parts, rf)
				if op == 40 && !failed {
					failed = true
					if lead, err := c.LeaderOf("t", 0); err == nil {
						if err := c.FailShard(lead); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !clock.Sleep(ctx, 5*time.Millisecond) {
					t.Fatal("sleep interrupted")
				}
			}
			if pubErr != nil {
				t.Fatal(pubErr)
			}

			// Recover every fault, then the lag bound must drain to zero.
			healAndDrainReplication(t, c, clock, shards, parts, rf)
			mu.Lock()
			av := ackViolations
			mu.Unlock()
			if len(av) != 0 {
				t.Fatalf("acknowledged watermark not monotone/gapless: %v", av)
			}
			if d := c.CheckReplicaConsistency("t"); len(d) != 0 {
				t.Fatalf("diverged replicas after drain: %v", d)
			}
			for p := 0; p < parts; p++ {
				assertReplicaLogsIdentical(t, c, "t", p)
			}
		})
	}
}

// TestReplicationSegmentReuseUnderFaults covers the segment lifecycle
// (DESIGN.md "Segment lifecycle") where the chaos scenario cannot: there
// no partition ever seals a segment (≤ 375 messages per partition at the
// default 4096-message SegmentSize), so this test, not chaos-fuzz, is
// what exercises nextSegment/Trim under faults. At SegmentSize 64 a
// consumer commits and persists to cluster.Offsets() — every persist
// trims every replica — so followers trim, refill their spares, are
// promoted while holding refilled segments and are then read by the
// consumer, all under the same lag/tear/leader-loss storm as
// TestReplicationFaultProperty. Every payload is unique to its message:
// the consumer must see each partition's offsets exactly once, in order,
// each with the payload the producer was told lives at that offset, every
// fetched view must still read the same at the end, and the replica logs
// must be identical after the drain.
func TestReplicationSegmentReuseUnderFaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		shards = 3
		rf     = 3
		parts  = 2
		total  = 3000
	)
	type delivery struct {
		offset int64
		seq    uint64
	}
	refills := 0
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			next := xorshift(seed)
			c := NewCluster(ClusterConfig{
				Shards: shards, Replication: rf, SegmentSize: 64,
				HandoffDelay: 20 * time.Millisecond,
				AppendCost:   10 * time.Microsecond,
				Clock:        clock,
			})
			defer c.Close()
			if err := c.CreateTopic("t", parts); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			ps := make([]int, parts)
			for p := range ps {
				ps[p] = p
				c.Offsets().Save("g", "t", p, 0) // register: floors the low-watermark
			}

			// Producer: sequence-numbered payloads; PublishBatch reports
			// where each landed (after any handoff re-append).
			var mu sync.Mutex
			placed := make([]map[int64]uint64, parts) // offset -> seq, per partition
			for p := range placed {
				placed[p] = make(map[int64]uint64)
			}
			var pubErr error
			pubDone := vclock.NewEvent(clock)
			clock.Go(func() {
				defer pubDone.Fire()
				for sent := 0; sent < total; {
					k := 1 + next(48)
					if k > total-sent {
						k = total - sent
					}
					kvs := make([][2][]byte, k)
					for i := range kvs {
						kvs[i][1] = binary.BigEndian.AppendUint64(nil, uint64(sent+i))
					}
					msgs, err := c.PublishBatch(ctx, "t", kvs)
					if err != nil {
						pubErr = err
						return
					}
					mu.Lock()
					for _, m := range msgs {
						placed[m.Partition][m.Offset] = binary.BigEndian.Uint64(m.Value)
					}
					mu.Unlock()
					sent += k
					if !clock.Sleep(ctx, time.Millisecond) {
						return
					}
				}
			})

			// Consumer: fetch, record, commit, persist (the trim instant).
			got := make([][]delivery, parts)
			var views [][]Message
			var conErr error
			conDone := vclock.NewEvent(clock)
			clock.Go(func() {
				defer conDone.Fire()
				cursor := make([]int64, parts)
				for n := 0; n < total; {
					j, msgs, err := c.FetchOrWait(ctx, "t", ps, cursor, n, 1+next(96))
					if err != nil {
						conErr = err
						return
					}
					views = append(views, msgs)
					for _, m := range msgs {
						got[j] = append(got[j], delivery{m.Offset, binary.BigEndian.Uint64(m.Value)})
					}
					cursor[j] += int64(len(msgs))
					n += len(msgs)
					if err := c.Commit("t", j, cursor[j]); err != nil {
						conErr = err
						return
					}
					c.Offsets().Save("g", "t", j, cursor[j])
				}
			})

			// A segment pointer seen holding two different first offsets was
			// retired by Trim and born again in nextSegment.
			firstOf := make(map[*segment]int64)
			sample := func() {
				for s := 0; s < c.ShardCount(); s++ {
					for p := 0; p < parts; p++ {
						part := replicaLog(c, "t", p, s)
						if part == nil {
							continue // failed shard
						}
						c.mu.Lock()
						for _, seg := range part.segs {
							if len(seg.msgs) == 0 {
								continue
							}
							if o, ok := firstOf[seg]; ok && o != seg.msgs[0].Offset {
								refills++
							}
							firstOf[seg] = seg.msgs[0].Offset
						}
						c.mu.Unlock()
					}
				}
			}

			failed := false
			for op := 0; !pubDone.Fired() || !conDone.Fired(); op++ {
				replicationFaultStep(t, c, next, shards, parts, rf)
				if op == 60 && !failed {
					failed = true
					if lead, err := c.LeaderOf("t", 0); err == nil {
						if err := c.FailShard(lead); err != nil {
							t.Fatal(err)
						}
					}
				}
				sample()
				if !clock.Sleep(ctx, 5*time.Millisecond) {
					t.Fatal("sleep interrupted")
				}
			}
			if pubErr != nil || conErr != nil {
				t.Fatalf("producer: %v, consumer: %v", pubErr, conErr)
			}

			for p := range got {
				if len(got[p]) != len(placed[p]) {
					t.Fatalf("partition %d: %d deliveries, %d placed", p, len(got[p]), len(placed[p]))
				}
				for i, d := range got[p] {
					if d.offset != int64(i) {
						t.Fatalf("partition %d: delivery %d carries offset %d (not exactly-once in order)", p, i, d.offset)
					}
					if want := placed[p][d.offset]; d.seq != want {
						t.Fatalf("partition %d offset %d delivered payload %d, producer placed %d", p, d.offset, d.seq, want)
					}
				}
			}
			// Every fetched view still reads what it read at delivery.
			seen := make([]int, parts)
			for _, v := range views {
				for _, m := range v {
					d := got[m.Partition][seen[m.Partition]]
					seen[m.Partition]++
					if m.Offset != d.offset || binary.BigEndian.Uint64(m.Value) != d.seq {
						t.Fatalf("retained view of %d[%d] now reads offset %d payload %d, delivered payload %d",
							m.Partition, d.offset, m.Offset, binary.BigEndian.Uint64(m.Value), d.seq)
					}
				}
			}

			// Recover every fault, drain, and compare the replica logs.
			healAndDrainReplication(t, c, clock, shards, parts, rf)
			if d := c.CheckReplicaConsistency("t"); len(d) != 0 {
				t.Fatalf("diverged replicas after drain: %v", d)
			}
			for p := 0; p < parts; p++ {
				assertReplicaLogsIdentical(t, c, "t", p)
			}
		})
	}
	if !t.Failed() && refills == 0 {
		t.Fatal("no follower ever refilled a trimmed segment: the seam is not exercised")
	}
}

// TestClusterCloseMidHandoffUnwindsCleanly is the teardown regression
// test: publishes parked on the quorum watermark, publishes and fetches
// parked behind a handoff fence, and fetches canceled by their context
// must all unwind — cancellation returns ctx.Err() while the cluster
// stays live, and a Close in the middle of a handoff window releases
// every parked caller with ErrBrokerClosed and leaks no goroutines.
func TestClusterCloseMidHandoffUnwindsCleanly(t *testing.T) {
	base := runtime.NumGoroutine()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 10 * time.Second,
		AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// A parked fetch honors context cancellation while the cluster is up.
	cctx, cancel := context.WithCancel(ctx)
	var cancelErr error
	cancelDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer cancelDone.Fire()
		_, cancelErr = c.Fetch(cctx, "t", 0, 3, 10) // nothing at 3: parks
	})
	if !clock.Sleep(ctx, 50*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	cancel()
	if !cancelDone.Wait(ctx) {
		t.Fatal("canceled fetch never returned")
	}
	if !errors.Is(cancelErr, context.Canceled) {
		t.Fatalf("canceled fetch returned %v, want context.Canceled", cancelErr)
	}

	// Park a publish on the quorum watermark (torn follower)...
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	var quorumErr error
	quorumDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer quorumDone.Fire()
		quorumErr = c.PublishValues(ctx, "t", [][]byte{{9}, {9}})
	})
	if !clock.Sleep(ctx, 50*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	// ...then fence the partition mid-handoff (10s window, never walked
	// to completion) and park a publish and a fetch behind the fence.
	lead, err := c.LeaderOf("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(lead); err != nil {
		t.Fatal(err)
	}
	var fencePubErr, fenceFetchErr error
	fencePubDone := vclock.NewEvent(clock)
	fenceFetchDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer fencePubDone.Fire()
		_, fencePubErr = c.Publish(ctx, "t", nil, []byte("fenced"))
	})

	clock.Go(func() {
		defer fenceFetchDone.Fire()
		_, fenceFetchErr = c.Fetch(ctx, "t", 0, 0, 10)
	})
	if !clock.Sleep(ctx, 100*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	if quorumDone.Fired() || fencePubDone.Fired() || fenceFetchDone.Fired() {
		t.Fatal("a parked caller completed while fenced/unacknowledged")
	}

	// Close mid-handoff: every parked caller unwinds with ErrBrokerClosed.
	c.Close()
	for _, w := range []*vclock.Event{quorumDone, fencePubDone, fenceFetchDone} {
		if !w.Wait(ctx) {
			t.Fatal("parked caller never returned after Close")
		}
	}
	for name, err := range map[string]error{
		"quorum publish": quorumErr, "fenced publish": fencePubErr, "fenced fetch": fenceFetchErr,
	} {
		if !errors.Is(err, ErrBrokerClosed) {
			t.Fatalf("%s returned %v after Close, want ErrBrokerClosed", name, err)
		}
	}
	// No leaked goroutines: catch-up runners, fence walkers and parked
	// callers all exit. The fence walker parks in a virtual sleep whose
	// context Close just canceled, and canceled sleepers are reaped by
	// the scheduler's sweep on its next pass — so keep driving the clock
	// while polling (the wall-clock sleep lets the reaped goroutines'
	// exits land; they are asynchronous to the sweep).
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		clock.Sleep(ctx, time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close: %d > %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
