package streaming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// TestClusterPlacementDeterministic pins that placement is a pure
// function of configuration: two clusters built the same way place every
// partition identically, and leaders spread across the ring.
func TestClusterPlacementDeterministic(t *testing.T) {
	build := func() *Cluster {
		c := NewCluster(ClusterConfig{Shards: 3, Replication: 2})
		if err := c.CreateTopic("events", 6); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	pa, pb := a.Placement(), b.Placement()
	if len(pa) != 6 || fmt.Sprint(pa) != fmt.Sprint(pb) {
		t.Fatalf("placement not deterministic:\n%v\nvs\n%v", pa, pb)
	}
	leaders := map[int]int{}
	for _, p := range pa {
		if len(p.Replicas) != 2 || p.Replicas[0] == p.Replicas[1] {
			t.Fatalf("bad replica set for %s[%d]: %v", p.Topic, p.Partition, p.Replicas)
		}
		leaders[p.Leader]++
	}
	if len(leaders) != 3 {
		t.Fatalf("leaders concentrated on %d of 3 shards: %v", len(leaders), leaders)
	}
}

// TestClusterRefusesLastLiveShard: failing a shard is permanent, failing
// the last live shard is refused (no cold storage to recover from), and
// re-failing a dead shard is a no-op.
func TestClusterRefusesLastLiveShard(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{Shards: 2, Replication: 2, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(5); err == nil {
		t.Fatal("failing an unknown shard succeeded")
	}
	if err := c.FailShard(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(0); err != nil {
		t.Fatalf("re-failing a dead shard should be a no-op, got %v", err)
	}
	if err := c.FailShard(1); err == nil {
		t.Fatal("failing the last live shard succeeded")
	}
	if got := c.LiveShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("live shards = %v, want [1]", got)
	}
}

// TestClusterRefusesSoleHolder: at replication 1 a partition's one replica
// is all of it, so failing its shard would leave the partition leaderless
// with nothing to recover from — the failure is refused with nothing
// changed, exactly as the last-live-shard case is.
func TestClusterRefusesSoleHolder(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := NewCluster(ClusterConfig{Shards: 3, Replication: 1, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	leader, _ := c.LeaderOf("t", 0)
	if err := c.FailShard(leader); err == nil {
		t.Fatalf("failing shard %d, the only holder of t[0], succeeded", leader)
	}
	if got := c.LiveShards(); len(got) != 3 {
		t.Fatalf("live shards = %v after the refused failure, want all three", got)
	}
	if nl, _ := c.LeaderOf("t", 0); nl != leader || c.Handoffs() != 0 {
		t.Fatalf("t[0] led by %d after %d handoffs, want %d and none", nl, c.Handoffs(), leader)
	}
	m, err := c.Publish(context.Background(), "t", nil, []byte("x")) // key-less: round-robin starts at t[0]
	if err != nil || m.Partition != 0 {
		t.Fatalf("publish after the refused failure: t[%d], %v", m.Partition, err)
	}
}

// TestClusterCopiesLiveExactlyOnMembers: a partition's log has a copy on a
// shard exactly while that shard is a member — made at placement and at
// recruitment, closed and dropped at death — so a non-member pre-creates
// nothing and a dead shard pins nothing.
func TestClusterCopiesLiveExactlyOnMembers(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := NewCluster(ClusterConfig{Shards: 4, Replication: 3, Clock: clock})
	defer c.Close()
	const parts = 6
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for q := 0; q < parts; q++ {
			reps := placementOf(c, "t", q).Replicas
			if len(reps) != 3 {
				t.Fatalf("%s: t[%d] has replicas %v, want three", when, q, reps)
			}
			for s := 0; s < 4; s++ {
				lp := replicaLog(c, "t", q, s)
				if member := slices.Contains(reps, s); (lp != nil) != member {
					t.Fatalf("%s: shard %d member of t[%d] = %v (replicas %v), holds a copy = %v",
						when, s, q, member, reps, lp != nil)
				}
			}
		}
	}
	check("at placement")
	victim, _ := c.LeaderOf("t", 0)
	var held []*partition
	for q := 0; q < parts; q++ {
		if lp := replicaLog(c, "t", q, victim); lp != nil {
			held = append(held, lp)
		}
	}
	if err := c.FailShard(victim); err != nil {
		t.Fatal(err)
	}
	check("after the recruit")
	for _, lp := range held {
		c.mu.Lock()
		closed := lp.closed
		c.mu.Unlock()
		if !closed {
			t.Fatal("a dead shard's copy was dropped without being closed")
		}
	}
}

// TestClusterAccessorsRaceCleanFromOutside checks the one-lock claim with a
// real thread: a bare goroutine — no Adopt, no clock, so only the accessors'
// own locking orders it against the run — polls every read accessor that
// reaches into a replica log while a replication-3 run publishes, fetches,
// commits, trims and loses a shard mid-run. Under -race (make race) any log
// field read or written outside c.mu is a report.
func TestClusterAccessorsRaceCleanFromOutside(t *testing.T) {
	const parts = 4
	clock := vclocktest.Adopted(t)
	ctx := context.Background()
	c := NewCluster(ClusterConfig{Shards: 4, Replication: 3, SegmentSize: 16, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Placement()
			c.UnderReplicated()
			c.CheckReplicaConsistency("t")
			for q := 0; q < parts; q++ {
				c.EndOffset("t", q)
				c.Committed("t", q)
				c.LeaderOf("t", q)
			}
			polls.Add(1)
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	// The run: rounds of publish → drain → commit → persist (which trims),
	// losing partition 0's leader once the poller is demonstrably alongside,
	// until it has polled through a good stretch of the aftermath too.
	values := make([][]byte, 64)
	for i := range values {
		values[i] = []byte{byte(i)}
	}
	var cursor [parts]int64
	failedAt := int64(-1)
	for round := 0; failedAt < 0 || polls.Load() < failedAt+200; round++ {
		if round == 200_000 {
			t.Fatalf("poller made %d polls in %d rounds: it never ran alongside", polls.Load(), round)
		}
		if failedAt < 0 && polls.Load() >= 50 {
			victim, _ := c.LeaderOf("t", 0)
			if err := c.FailShard(victim); err != nil {
				t.Fatal(err)
			}
			failedAt = polls.Load()
		}
		if err := c.PublishValues(ctx, "t", values); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < parts; q++ {
			end, _ := c.EndOffset("t", q)
			for cursor[q] < end {
				msgs, err := c.Fetch(ctx, "t", q, cursor[q], 64)
				if err != nil {
					t.Fatal(err)
				}
				cursor[q] += int64(len(msgs))
			}
			if err := c.Commit("t", q, cursor[q]); err != nil {
				t.Fatal(err)
			}
			c.Offsets().Save("g", "t", q, cursor[q])
		}
	}
	if c.Handoffs() == 0 {
		t.Fatal("the shard loss moved no leader")
	}
}

// TestClusterCreateTopicAfterShardLoss: a dead shard's broker is closed,
// and CreateTopic used to create the topic on it too — so after any
// FailShard every CreateTopic failed with ErrBrokerClosed, forever. Topics
// are created on live shards only; the new topic places, accepts
// publishes, serves fetches and replicates fully.
func TestClusterCreateTopicAfterShardLoss(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{Shards: 3, Replication: 2, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("b", 2); err != nil {
		t.Fatalf("CreateTopic after a shard loss: %v", err)
	}
	ctx := context.Background()
	for q := 0; q < 2; q++ {
		reps := placementOf(c, "b", q).Replicas
		if len(reps) != 2 || reps[0] == 0 || reps[1] == 0 {
			t.Fatalf("b[%d] placed on %v, want two live shards", q, reps)
		}
	}
	if err := c.PublishValues(ctx, "b", [][]byte{[]byte("x"), []byte("y"), []byte("z")}); err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for q := 0; q < 2; q++ {
		end, err := c.EndOffset("b", q)
		if err != nil {
			t.Fatal(err)
		}
		for o := int64(0); o < end; {
			msgs, err := c.Fetch(ctx, "b", q, o, 8)
			if err != nil {
				t.Fatal(err)
			}
			o += int64(len(msgs))
			fetched += len(msgs)
		}
	}
	if fetched != 3 {
		t.Fatalf("fetched %d of 3 messages published to the new topic", fetched)
	}
	deadline := clock.Now().Add(time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatalf("%d partitions still under-replicated", c.UnderReplicated())
		}
		clock.Sleep(ctx, 10*time.Millisecond)
	}
}

// TestClusterShardLossHandoff drives the full failover path in virtual
// time: failing a partition's leader fences the partition for exactly
// HandoffDelay (a parked fetch completes no earlier than the handoff
// instant), bumps the epoch, promotes the surviving replica, and
// re-replicates onto a recruit until the cluster is fully replicated
// again.
func TestClusterShardLossHandoff(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const delay = 500 * time.Millisecond
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 2, HandoffDelay: delay,
		AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
		Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Publish(ctx, "t", nil, []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Locate the partition that message landed on (round-robin from 0).
	const part = 0
	lead, err := c.LeaderOf("t", part)
	if err != nil {
		t.Fatal(err)
	}
	old := placementOf(c, "t", part).Replicas

	failedAt := clock.Now()
	if err := c.FailShard(lead); err != nil {
		t.Fatal(err)
	}
	// The shard outside the old replica set is recruited, and the snapshot
	// lists it as syncing until it has replayed the log.
	recruit := 3 - old[0] - old[1]
	if s := placementOf(c, "t", part).Syncing; !slices.Equal(s, []int{recruit}) {
		t.Fatalf("syncing = %v right after FailShard, want the recruit [%d]", s, recruit)
	}
	if got := c.Handoffs(); got < 1 {
		t.Fatalf("handoffs = %d, want >= 1", got)
	}
	if ep := placementOf(c, "t", part).Epoch; ep != 1 {
		t.Fatalf("epoch = %d, want 1", ep)
	}
	if nl, _ := c.LeaderOf("t", part); nl != old[1] {
		t.Fatalf("new leader = %d, want promoted follower %d", nl, old[1])
	}

	// A fetch against the fenced partition parks and completes no earlier
	// than the handoff instant.
	var fetchedAt time.Time
	var fetchErr error
	fetched := vclock.NewEvent(clock)
	clock.Go(func() {
		defer fetched.Fire()
		_, fetchErr = c.Fetch(ctx, "t", part, 0, 10)
		fetchedAt = clock.Now()
	})
	if !clock.Sleep(ctx, 2*delay) {
		t.Fatal("sleep interrupted")
	}
	if !fetched.Wait(ctx) {
		t.Fatal("fetch never completed")
	}
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if woke := fetchedAt.Sub(failedAt); woke < delay {
		t.Fatalf("fetch completed %v after failure, before the %v handoff delay", woke, delay)
	}

	// Re-replication reconverged: every partition back at 2 live replicas,
	// none still syncing, none placed on the dead shard.
	if n := c.UnderReplicated(); n != 0 {
		t.Fatalf("%d partitions still under-replicated after handoff", n)
	}
	for _, p := range c.Placement() {
		if len(p.Replicas) != 2 || len(p.Syncing) != 0 {
			t.Fatalf("%s[%d] has %d replicas, %v syncing", p.Topic, p.Partition, len(p.Replicas), p.Syncing)
		}
		for _, r := range p.Replicas {
			if r == lead {
				t.Fatalf("%s[%d] still placed on dead shard %d", p.Topic, p.Partition, lead)
			}
		}
	}
}

// TestClusterSeverLinkFencesPublish: severing the leader->follower
// replication link of a partition blocks publish acknowledgement until
// the link heals; links between shards not replicating the partition
// change nothing.
func TestClusterSeverLinkFencesPublish(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 2, AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	reps := placementOf(c, "t", 0).Replicas
	leader, follower := reps[0], reps[1]
	bystander := 0
	for s := 0; s < 3; s++ {
		if s != leader && s != follower {
			bystander = s
		}
	}
	ctx := context.Background()

	// A link not on the replication path fences nothing.
	if err := c.SeverLink(follower, bystander); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(ctx, "t", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.HealLink(follower, bystander); err != nil {
		t.Fatal(err)
	}

	// The leader<->follower link fences publishes until healed.
	if err := c.SeverLink(leader, follower); err != nil {
		t.Fatal(err)
	}
	var pubAt time.Time
	var pubErr error
	published := vclock.NewEvent(clock)
	clock.Go(func() {
		defer published.Fire()
		_, pubErr = c.Publish(ctx, "t", nil, []byte("fenced"))
		pubAt = clock.Now()
	})
	const window = 200 * time.Millisecond
	severedAt := clock.Now()
	if !clock.Sleep(ctx, window) {
		t.Fatal("sleep interrupted")
	}
	if published.Fired() {
		t.Fatal("publish acknowledged while the replication link was severed")
	}
	if err := c.HealLink(leader, follower); err != nil {
		t.Fatal(err)
	}
	if !published.Wait(ctx) {
		t.Fatal("publish never completed after heal")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	if held := pubAt.Sub(severedAt); held < window {
		t.Fatalf("publish acknowledged %v after sever, before the link healed", held)
	}
	if err := c.SeverLink(leader, leader); err == nil {
		t.Fatal("severing a self-link succeeded")
	}
}

// TestFetchTrimmedOffsetTypedError pins the retention contract's error
// surface: a fetch below the trimmed floor fails with
// OffsetOutOfRangeError (matching ErrOffsetOutOfRange, carrying the
// oldest retained offset), and fetches at the floor still serve.
func TestFetchTrimmedOffsetTypedError(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const segSize = 4
	c := NewCluster(ClusterConfig{Shards: 1, Replication: 1, SegmentSize: segSize, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit("t", 0, 9); err != nil {
		t.Fatal(err)
	}
	// Persisting the cursor drives retention: segments wholly below offset
	// 9 trim (two full segments of 4), leaving the floor at 8.
	c.Offsets().Save("g", "t", 0, 9)
	if oldest := placementOf(c, "t", 0).Oldest; oldest != 8 {
		t.Fatalf("oldest = %d; want 8", oldest)
	}

	_, err := c.Fetch(ctx, "t", 0, 0, 10)
	if err == nil {
		t.Fatal("fetch below the retention floor succeeded")
	}
	if !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("error does not match ErrOffsetOutOfRange: %v", err)
	}
	var oor *OffsetOutOfRangeError
	if !errors.As(err, &oor) {
		t.Fatalf("error is not *OffsetOutOfRangeError: %T", err)
	}
	if oor.Topic != "t" || oor.Partition != 0 || oor.Offset != 0 || oor.Oldest != 8 {
		t.Fatalf("wrong coordinates: %+v", oor)
	}

	msgs, err := c.Fetch(ctx, "t", 0, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Offset != 8 || msgs[1].Offset != 9 {
		t.Fatalf("fetch at the floor returned %d msgs starting at %d, want [8,10)", len(msgs), msgs[0].Offset)
	}
}

// TestRetentionBoundProperty is the bounded-memory property test: over
// 10 randomized seeds, a randomized interleaving of publishes, consumer
// commits, and the trims they trigger must keep resident bytes within
// the retention contract's bound at every persist instant — resident
// counts exactly the bytes in [oldest, end), the floor never passes the
// low-watermark of persisted cursors, and it trails it by less than one
// segment. Once every consumer has drained and persisted, at most one
// segment of bytes remains resident however many messages flowed
// through. Run under -race in CI at GOMAXPROCS=4.
func TestRetentionBoundProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		segSize    = 64
		payloadLen = 32
		total      = 2500
		maxBatch   = 48
	)
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			// Per-seed xorshift: deterministic interleavings without
			// math/rand (seed-audit rule 1).
			rng := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}

			var cl *Cluster
			trims, evals := 0, 0
			lastOldest, lastResident := int64(0), int64(0)
			cl = NewCluster(ClusterConfig{
				Shards: 3, Replication: 2, SegmentSize: segSize,
				AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
				Clock: clock,
				OnRetention: func(topic string, q int, resident, oldest int64) {
					evals++
					lastResident = resident
					end, err := cl.EndOffset(topic, q)
					if err != nil {
						t.Error(err)
						return
					}
					lw, ok := cl.Offsets().LowWatermark(topic, q)
					if !ok {
						t.Error("retention evaluated with no registered group")
						return
					}
					if got, want := resident, (end-oldest)*payloadLen; got != want {
						t.Errorf("resident %d != bytes in [oldest,end) = %d", got, want)
					}
					if oldest > lw {
						t.Errorf("floor %d passed low-watermark %d", oldest, lw)
					}
					if lw-oldest >= segSize {
						t.Errorf("floor %d trails low-watermark %d by a full segment", oldest, lw)
					}
					if bound := (end - lw + segSize) * payloadLen; resident > bound {
						t.Errorf("resident %d exceeds bound %d (end %d, lw %d)", resident, bound, end, lw)
					}
					if oldest > lastOldest {
						lastOldest = oldest
						trims++
					}
				},
			})
			defer cl.Close()
			if err := cl.CreateTopic("t", 1); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			groups := [2]string{"fast", "slow"}
			var cursor [2]int64
			for i := range groups {
				cl.Offsets().Save(groups[i], "t", 0, 0) // register: floors the low-watermark
			}

			payload := make([]byte, payloadLen)
			published := 0
			for published < total || cursor[0] < total || cursor[1] < total {
				switch next(4) {
				case 0, 1: // publish a random batch
					if published == total {
						continue
					}
					k := 1 + next(maxBatch)
					if k > total-published {
						k = total - published
					}
					values := make([][]byte, k)
					for i := range values {
						values[i] = payload
					}
					if err := cl.PublishValues(ctx, "t", values); err != nil {
						t.Fatal(err)
					}
					published += k
				default: // one consumer fetches, commits, persists (trim instant)
					i := next(2)
					end, err := cl.EndOffset("t", 0)
					if err != nil {
						t.Fatal(err)
					}
					if cursor[i] >= end {
						continue // nothing to consume; Fetch would park
					}
					msgs, err := cl.Fetch(ctx, "t", 0, cursor[i], 1+next(96))
					if err != nil {
						t.Fatalf("consumer %s at %d: %v", groups[i], cursor[i], err)
					}
					cursor[i] += int64(len(msgs))
					if err := cl.Commit("t", 0, cursor[i]); err != nil {
						t.Fatal(err)
					}
					cl.Offsets().Save(groups[i], "t", 0, cursor[i])
				}
			}
			if evals == 0 || trims == 0 {
				t.Fatalf("property not exercised: %d evaluations, %d trims", evals, trims)
			}
			if lastResident > segSize*payloadLen {
				t.Fatalf("drained cluster retains %d bytes, want <= one segment (%d)", lastResident, segSize*payloadLen)
			}
			if oldest := placementOf(cl, "t", 0).Oldest; oldest < total-segSize {
				t.Fatalf("final floor %d never approached the head (%d published)", oldest, total)
			}
		})
	}
}
