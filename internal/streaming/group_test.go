package streaming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// newVirtualStreamEnv builds a virtual-clock manager with one running
// pilot of the given core count. The caller must have adopted the clock
// and must `defer mgr.Close()` *after* its `defer clock.Leave()` (so the
// manager tears down while the driver is still a clock participant —
// t.Cleanup would run too late, after Leave).
func newVirtualStreamEnv(t testing.TB, clock *vclock.Virtual, cores int) *core.Manager {
	t.Helper()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("gs", cores, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	if _, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://gs", Cores: cores}); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestGroupRebalanceExactlyOnce drives a group through a live join and a
// live leave and requires every (partition, offset) pair to be handled
// exactly once: the generation barrier must hand partition cursors over
// without loss or double-processing.
func TestGroupRebalanceExactlyOnce(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	if err := b.CreateTopic("t", 6); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, 8)
	defer mgr.Close()

	var mu sync.Mutex
	seen := map[string]int{}
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "g", Topic: "t", Workers: 2, BatchSize: 16,
		CostPerMessage: time.Millisecond,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			mu.Lock()
			seen[fmt.Sprintf("%d@%d", m.Partition, m.Offset)]++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	const n = 600
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		values := make([][]byte, 32)
		for i := range values {
			values[i] = []byte("x")
		}
		for sent := 0; sent < n; {
			k := len(values)
			if n-sent < k {
				k = n - sent
			}
			if err := b.PublishValues(ctx, "t", values[:k]); err != nil {
				t.Error(err)
				return
			}
			sent += k
		}
	})
	if err := g.WaitProcessed(ctx, n/4); err != nil {
		t.Fatalf("before join: %d/%d: %v", g.Processed(), n, err)
	}
	ord, err := g.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WaitProcessed(ctx, n/2); err != nil {
		t.Fatalf("before leave: %d/%d: %v", g.Processed(), n, err)
	}
	if err := g.RemoveWorker(ord); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", g.Processed(), n, err)
	}
	if !done.Wait(ctx) {
		t.Fatal(ctx.Err())
	}
	g.Stop()
	if g.Rebalances() != 2 {
		t.Errorf("rebalances = %d, want 2", g.Rebalances())
	}
	if got := len(g.Members()); got != 2 {
		t.Errorf("members = %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("message %s handled %d times, want exactly once", k, c)
		}
	}
	if g.Processed() != n {
		t.Errorf("processed = %d, want %d (exactly-once accounting)", g.Processed(), n)
	}
}

// groupJitterRun is one full same-seed group run whose *real* completion
// order is perturbed: pure handlers burn a wall-clock jitter derived from
// jitterSeed (different every run) while the modeled world stays fixed.
// It fingerprints every externally visible measurement, mirroring
// vclock's TestComputeScheduleIndependentOfCompletionOrder harness.
func groupJitterRun(t *testing.T, jitterSeed uint64) string {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond,
		SegmentSize: 64, MaxInflightBytes: 1 << 12, Clock: clock,
	})
	defer b.Close()
	const nparts = 8
	if err := b.CreateTopic("t", nparts); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, 8)
	defer mgr.Close()
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "g", Topic: "t", Workers: 3, BatchSize: 32,
		CostPerMessage: 500 * time.Microsecond,
		PureHandler:    true,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			// Real CPU whose wall duration varies with the run's jitter
			// seed: completion order across workers is race-determined,
			// the modeled schedule must not be.
			spin := splitmix(jitterSeed^uint64(m.Partition)<<32^uint64(m.Offset)) % 2000
			acc := uint64(1)
			for i := uint64(0); i < spin; i++ {
				acc = splitmix(acc)
			}
			if acc == 42 {
				return fmt.Errorf("unreachable")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	const n = 2000
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		values := make([][]byte, 50)
		for i := range values {
			values[i] = []byte("payload")
		}
		for sent := 0; sent < n; {
			k := len(values)
			if n-sent < k {
				k = n - sent
			}
			if err := b.PublishValues(ctx, "t", values[:k]); err != nil {
				t.Error(err)
				return
			}
			sent += k
		}
	})
	if err := g.WaitProcessed(ctx, n/4); err != nil {
		t.Fatalf("before join: %d/%d: %v", g.Processed(), n, err)
	}
	ord, err := g.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WaitProcessed(ctx, 3*n/4); err != nil {
		t.Fatalf("before leave: %d/%d: %v", g.Processed(), n, err)
	}
	if err := g.RemoveWorker(ord); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", g.Processed(), n, err)
	}
	if !done.Wait(ctx) {
		t.Fatal(ctx.Err())
	}
	g.Stop()
	lat := g.LatencyStats()
	fp := fmt.Sprintf("processed=%d rebalances=%d tput=%.6f lat{mean=%.9f p50=%.9f p95=%.9f max=%.9f}",
		g.Processed(), g.Rebalances(), g.Throughput(), lat.Mean, lat.Median, lat.P95, lat.Max)
	for q := 0; q < nparts; q++ {
		c, err := b.Committed("t", q)
		if err != nil {
			t.Fatal(err)
		}
		fp += fmt.Sprintf(" c%d=%d", q, c)
	}
	return fp
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestGroupRebalanceDeterministic is the consumer-group determinism
// contract: five same-seed runs — live join and leave, backpressured
// producer, parallel compute-phase handlers with run-varying wall-clock
// completion jitter, forced GOMAXPROCS=4 — must produce bit-identical
// throughput, latency quantiles and per-partition commit cursors.
func TestGroupRebalanceDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref := groupJitterRun(t, 0)
	for seed := uint64(1); seed <= 4; seed++ {
		if got := groupJitterRun(t, seed); got != ref {
			t.Fatalf("jitter seed %d diverged:\n%s\n%s", seed, ref, got)
		}
	}
}

// TestPublishBackpressureBlocksAndResumes pins backpressure to exact
// virtual instants: a publish that exceeds MaxInflightBytes must park
// until the consumer commits, resume at precisely the commit instant,
// and pay its append cost from there.
func TestPublishBackpressureBlocksAndResumes(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost:       time.Millisecond,
		FetchLatency:     time.Millisecond,
		MaxInflightBytes: 100,
		Clock:            clock,
	})
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 10)

	// Fill the partition exactly to the bound: 10 messages × 10 bytes.
	values := make([][]byte, 10)
	for i := range values {
		values[i] = payload
	}
	if err := b.PublishValues(ctx, "t", values); err != nil {
		t.Fatal(err)
	}
	t10 := vclock.Epoch.Add(10 * time.Millisecond) // 10 appends × 1ms
	if now := clock.Now(); !now.Equal(t10) {
		t.Fatalf("after fill clock = %v, want %v", now, t10)
	}
	inflight := func() int64 {
		part := replicaLog(b, "t", 0, 0)
		b.mu.Lock()
		defer b.mu.Unlock()
		return part.Inflight()
	}
	if n := inflight(); n != 100 {
		t.Fatalf("inflight = %d, want 100", n)
	}

	// An 11th message must block: the partition is at its bound.
	var published Message
	var resumedAt time.Time
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		m, err := b.Publish(ctx, "t", nil, payload)
		if err != nil {
			t.Error(err)
			return
		}
		published = m
		resumedAt = clock.Now()
	})
	// Let the producer park, then commit half the log 20ms later.
	if !clock.Sleep(ctx, 20*time.Millisecond) {
		t.Fatal("driver sleep canceled")
	}
	tCommit := t10.Add(20 * time.Millisecond)
	if err := b.Commit("t", 0, 5); err != nil {
		t.Fatal(err)
	}
	if !done.Wait(ctx) {
		t.Fatal("producer never resumed")
	}
	// The message was accepted at the commit instant and the producer
	// resumed one append cost later — not a nanosecond before or after.
	if !published.Published.Equal(tCommit) {
		t.Errorf("blocked publish accepted at %v, want commit instant %v", published.Published, tCommit)
	}
	if want := tCommit.Add(time.Millisecond); !resumedAt.Equal(want) {
		t.Errorf("producer resumed at %v, want %v", resumedAt, want)
	}
	if committed, _ := b.Committed("t", 0); committed != 5 {
		t.Errorf("committed = %d, want 5", committed)
	}
	// 100 - 5×10 freed + 10 published while blocked.
	if n := inflight(); n != 60 {
		t.Errorf("inflight = %d, want 60", n)
	}
}

// TestGroupWorkerFailureEvictsAndRebalances covers the abnormal-exit
// path: a worker whose handler fails must evict itself — its partitions
// reshard onto the survivors (the uncommitted batch is redelivered), and
// a later AddWorker's generation barrier must not wedge waiting for the
// dead worker's ack.
func TestGroupWorkerFailureEvictsAndRebalances(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	const nparts = 4
	if err := b.CreateTopic("t", nparts); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, 8)
	defer mgr.Close()
	var tripped atomic.Bool
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "g", Topic: "t", Workers: 2, BatchSize: 8,
		CostPerMessage: time.Millisecond,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			if m.Partition == 2 && m.Offset == 5 && tripped.CompareAndSwap(false, true) {
				return fmt.Errorf("injected handler failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	ctx := context.Background()
	publish := func(k int) {
		values := make([][]byte, k)
		for i := range values {
			values[i] = []byte("x")
		}
		if err := b.PublishValues(ctx, "t", values); err != nil {
			t.Fatal(err)
		}
	}
	// Commit cursors dodge the at-least-once double count of the
	// redelivered batch: all offsets below the cursor were processed.
	waitCommitted := func(target int64) {
		for i := 0; ; i++ {
			var sum int64
			for q := 0; q < nparts; q++ {
				c, err := b.Committed("t", q)
				if err != nil {
					t.Fatal(err)
				}
				sum += c
			}
			if sum >= target {
				return
			}
			if i > 10_000 || !clock.Sleep(ctx, 10*time.Millisecond) {
				t.Fatalf("committed %d of %d", sum, target)
			}
		}
	}
	publish(200)
	waitCommitted(200)
	if !tripped.Load() {
		t.Fatal("injected failure never fired")
	}
	if got := len(g.Members()); got != 1 {
		t.Fatalf("members = %d after worker failure, want 1 (evicted)", got)
	}
	// The barrier must still work: a join completes and the grown group
	// keeps consuming.
	if _, err := g.AddWorker(); err != nil {
		t.Fatal(err)
	}
	publish(100)
	waitCommitted(300)
	if got := len(g.Members()); got != 2 {
		t.Fatalf("members = %d after re-join, want 2", got)
	}
	g.Stop()
}

// TestGroupBackToBackRebalanceExactlyOnce is the regression test for the
// generation-barrier carry-forward: a worker removed in generation N is
// in neither N's nor N+1's member set, so if membership changes again
// before it quiesces, only N's still-pending barrier slots remember it.
// The successor barrier must inherit those slots — otherwise the new
// assignment activates (N's ready is force-fired on retirement) while
// the removed worker still owns a partition mid-batch, and its messages
// are processed twice.
//
// Construction: all traffic is keyed to partition 1, whose owner (worker
// ordinal 1) is deep in a long modeled batch when the driver issues
// RemoveWorker(1) immediately followed by AddWorker() — two membership
// changes with no ack in between. The joiner inherits partition 1 and
// must not re-consume the in-flight batch.
func TestGroupBackToBackRebalanceExactlyOnce(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	const nparts = 2
	if err := b.CreateTopic("t", nparts); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, 8)
	defer mgr.Close()

	// A key owned by partition 1, so every publish lands on worker 1's
	// shard while worker 0 idles on an empty partition 0.
	var key []byte
	for i := 0; key == nil; i++ {
		if k := []byte(fmt.Sprintf("k%d", i)); partitionOf(k, nparts) == 1 {
			key = k
		}
	}

	var mu sync.Mutex
	seen := map[string]int{}
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "g", Topic: "t", Workers: 2, BatchSize: 64,
		CostPerMessage: 4 * time.Millisecond, // 48-message batch = 192ms mid-flight window
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			mu.Lock()
			seen[fmt.Sprintf("%d@%d", m.Partition, m.Offset)]++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	const batch = 48
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	publish := func() {
		kvs := make([][2][]byte, batch)
		for i := range kvs {
			kvs[i] = [2][]byte{key, []byte("x")}
		}
		if _, err := b.PublishBatch(ctx, "t", kvs); err != nil {
			t.Fatal(err)
		}
	}
	publish()
	// Land the driver strictly inside worker 1's batch window: the fetch
	// completes within ~6ms of Epoch, the modeled batch cost runs ~192ms.
	if !clock.Sleep(ctx, 50*time.Millisecond) {
		t.Fatal("driver sleep canceled")
	}
	ord := g.Members()[1]
	if err := g.RemoveWorker(ord); err != nil {
		t.Fatal(err)
	}
	// Second membership change before anyone acked the first: the barrier
	// for this generation must still wait for the removed worker 1.
	if _, err := g.AddWorker(); err != nil {
		t.Fatal(err)
	}
	publish()
	if err := g.WaitProcessed(ctx, 2*batch); err != nil {
		t.Fatalf("processed %d/%d: %v", g.Processed(), 2*batch, err)
	}
	// The commit cursor must converge on exactly one pass over the log:
	// the late retiree's commit lands first, the successor's follows.
	for i := 0; ; i++ {
		c, err := b.Committed("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		if c == 2*batch {
			break
		}
		if c > 2*batch {
			t.Fatalf("committed = %d past end of log %d", c, 2*batch)
		}
		if i > 10_000 || !clock.Sleep(ctx, 10*time.Millisecond) {
			t.Fatalf("committed %d of %d", c, 2*batch)
		}
	}
	g.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2*batch {
		t.Fatalf("distinct messages = %d, want %d", len(seen), 2*batch)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("message %s handled %d times, want exactly once (late retiree raced the joiner)", k, c)
		}
	}
	if got := g.Processed(); got != 2*batch {
		t.Errorf("processed = %d, want %d (exactly-once accounting)", got, 2*batch)
	}
}

// TestCanceledBackpressurePublishLeavesNoWaiters pins the space-waiter
// hygiene of the producer park: a publish abandoned on context
// cancellation must fire its event so the next registration prunes it —
// repeatedly canceled publishes against a full partition must not grow
// part.space until a Commit or Close sweeps it.
func TestCanceledBackpressurePublishLeavesNoWaiters(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost:       time.Millisecond,
		MaxInflightBytes: 100,
		Clock:            clock,
	})
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 100)
	// Fill the partition exactly to the backpressure bound.
	if err := b.PublishValues(ctx, "t", [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	canceled, cancelNow := context.WithCancel(ctx)
	cancelNow()
	for i := 0; i < 50; i++ {
		if _, err := b.Publish(canceled, "t", nil, payload); !errors.Is(err, context.Canceled) {
			t.Fatalf("publish %d: err = %v, want context.Canceled", i, err)
		}
	}
	part := replicaLog(b, "t", 0, 0)
	b.mu.Lock()
	waiters := len(part.space)
	b.mu.Unlock()
	// At most the last abandoned (already-fired) entry may linger; every
	// earlier one must have been pruned at registration time.
	if waiters > 1 {
		t.Fatalf("part.space holds %d entries after 50 canceled publishes, want <= 1", waiters)
	}
	// The surviving entry must be recognizably dead so a live producer's
	// registration sweeps it too.
	b.mu.Lock()
	for _, w := range part.space {
		if w.live() {
			t.Error("abandoned space waiter left live")
		}
	}
	b.mu.Unlock()
}

// TestGroupStaticPoolNeverRebalances pins the deployment a fixed worker
// pool is: a group started with W workers and never resized keeps worker
// w on partitions w, w+W, … for its whole life (Rebalances stays 0),
// drains every partition, and — because it commits — lets a producer
// throttled by MaxInflightBytes finish against a handler slower than the
// arrival rate instead of parking forever.
func TestGroupStaticPoolNeverRebalances(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond,
		MaxInflightBytes: 64, Clock: clock,
	})
	defer b.Close()
	const parts, workers, n = 5, 2, 400
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, workers)
	defer mgr.Close()

	var mu sync.Mutex
	handled := make([]int64, parts)
	owner := make([]map[string]bool, parts)
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "static", Topic: "t", Workers: workers, BatchSize: 4,
		Handler: func(ctx context.Context, tc core.TaskContext, m Message) error {
			tc.Sleep(ctx, 5*time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			handled[m.Partition]++
			if owner[m.Partition] == nil {
				owner[m.Partition] = map[string]bool{}
			}
			owner[m.Partition][tc.Unit.Description().Name] = true
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	// 400 × 8 bytes against a 64-byte bound per partition: the producer
	// parks again and again and only the workers' commits let it on.
	rate, err := Produce(context.Background(), b, "t", n, 0, []byte("12345678"))
	if err != nil {
		t.Fatalf("producer did not finish under backpressure: %v", err)
	}
	if rate > 1000 { // unthrottled it is ≈ 10⁴ msg/s; two 5 ms workers drain 400/s
		t.Errorf("producer ran at %.0f msg/s: backpressure never engaged", rate)
	}
	if err := g.WaitProcessed(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if r := g.Rebalances(); r != 0 {
		t.Errorf("Rebalances = %d, want 0 for a pool that was never resized", r)
	}
	for q := 0; q < parts; q++ {
		end, err := b.EndOffset("t", q)
		if err != nil {
			t.Fatal(err)
		}
		if end == 0 || handled[q] != end {
			t.Errorf("partition %d: handled %d of %d", q, handled[q], end)
		}
		want := fmt.Sprintf("static[%d]", q%workers)
		if len(owner[q]) != 1 || !owner[q][want] {
			t.Errorf("partition %d served by %v, want only %s", q, owner[q], want)
		}
	}
}

// TestGroupValidation covers the constructor error paths.
func TestGroupValidation(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	mgr := newVirtualStreamEnv(t, clock, 2)
	defer mgr.Close()
	if _, err := StartGroup(context.Background(), mgr, b, GroupConfig{Topic: "t"}); err == nil {
		t.Error("nil handler accepted")
	}
	h := func(context.Context, core.TaskContext, Message) error { return nil }
	if _, err := StartGroup(context.Background(), mgr, b, GroupConfig{Topic: "ghost", Handler: h}); err == nil {
		t.Error("unknown topic accepted")
	}
	g, err := StartGroup(context.Background(), mgr, b, GroupConfig{Topic: "t", Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() // before mgr.Close: the workers must exit on every path
	if err := g.RemoveWorker(99); err == nil {
		t.Error("removing an unknown ordinal succeeded")
	}
	g.Stop()
}

// groupDrain is a drain in stream-repl1's shape on a fresh cluster: one
// shard, eight partitions of segSize-message segments, a 256 KiB in-flight
// bound, four Group workers whose views are leased (Offsets is the
// cluster's store), and a producer publishing 64-byte messages 4096 at a
// time. Each drain(n) publishes n more messages and returns once the group
// has handled them; stop tears it all down.
func groupDrain(tb testing.TB, segSize int) (c *Cluster, drain func(n int), stop func()) {
	tb.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	c = NewCluster(ClusterConfig{
		Shards: 1, Replication: 1, SegmentSize: segSize, MaxInflightBytes: 256 << 10,
		AppendCost: 20 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	if err := c.CreateTopic("t", 8); err != nil {
		tb.Fatal(err)
	}
	mgr := newVirtualStreamEnv(tb, clock, 6)
	ctx := context.Background()
	g, err := StartGroup(ctx, mgr, c, GroupConfig{
		Name: "g", Topic: "t", Workers: 4, BatchSize: 2048,
		CostPerMessage: 100 * time.Microsecond, PureHandler: true, Offsets: c.Offsets(),
		Handler: func(context.Context, core.TaskContext, Message) error { return nil },
	})
	if err != nil {
		tb.Fatal(err)
	}
	payload, sent := make([]byte, 64), 0
	drain = func(n int) {
		var perr error
		done := vclock.NewEvent(clock)
		clock.Go(func() {
			defer done.Fire()
			_, perr = ProduceBatched(ctx, c, "t", n, 0, payload, 4096)
		})
		sent += n
		if err := g.WaitProcessed(ctx, int64(sent)); err != nil {
			tb.Fatal(err)
		}
		if done.Wait(ctx); perr != nil {
			tb.Fatal(perr)
		}
	}
	return c, drain, func() {
		g.Stop()
		mgr.Close()
		c.Close()
		clock.Leave()
	}
}

// TestGroupDrainRefillsEverySegment is the free list's hot case: a group
// whose views are leased lets every trimmed segment be refilled, so once
// each log has grown to its working set no array is born, however many
// segments one persist trims at once.
func TestGroupDrainRefillsEverySegment(t *testing.T) {
	c, drain, stop := groupDrain(t, 64)
	defer stop()
	drain(64 << 10) // warm-up: every log past its chain and at its working set
	warm := c.Stats()
	drain(256 << 10)
	hot := c.Stats()
	t.Logf("after warm-up: %d born, %d refilled; then %d born, %d refilled",
		warm.Born, warm.Refilled, hot.Born-warm.Born, hot.Refilled-warm.Refilled)
	if hot.Born != warm.Born || hot.Refilled == warm.Refilled {
		t.Fatalf("a warm drain of %d messages bore %d segments and refilled %d; want none born",
			256<<10, hot.Born-warm.Born, hot.Refilled-warm.Refilled)
	}
}

// BenchmarkGroupDrain prices the streaming plane's memory in
// stream-repl1's shape (groupDrain at 4096-message segments): one million
// messages per iteration after a warm-up million, in B/msg, and the
// segments born and refilled per million messages (Cluster.Stats), which
// say where those bytes went: a birth is a 458 KB segment.
func BenchmarkGroupDrain(b *testing.B) {
	const perOp = 1 << 20
	c, drain, stop := groupDrain(b, 4096)
	defer stop()
	drain(perOp)
	before := c.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(perOp)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	after, msgs := c.Stats(), float64(b.N)*perOp
	b.ReportMetric(float64(ms.TotalAlloc-bytes)/msgs, "B/msg")
	b.ReportMetric(float64(after.Born-before.Born)/msgs*1e6, "born/M")
	b.ReportMetric(float64(after.Refilled-before.Refilled)/msgs*1e6, "refilled/M")
}
