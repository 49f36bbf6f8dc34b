package streaming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// oneBroker is the single-broker deployment every test below the
// federation suite runs on: one shard, replication 1.
func oneBroker(cfg ClusterConfig) *Cluster {
	cfg.Shards, cfg.Replication = 1, 1
	return NewCluster(cfg)
}

func newBroker(clock vclock.Clock) *Cluster {
	return oneBroker(ClusterConfig{
		Name:         "b",
		AppendCost:   time.Millisecond, // 1000 msg/s per partition
		FetchLatency: time.Millisecond,
		Clock:        clock,
	})
}

func TestCreateTopicAndPartitions(t *testing.T) {
	b := newBroker(vclocktest.Adopted(t))
	defer b.Close()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	n, err := b.Partitions("t")
	if err != nil || n != 4 {
		t.Fatalf("Partitions = %d %v", n, err)
	}
	// Idempotent with same count, conflict with different count.
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 8); err == nil {
		t.Fatal("conflicting partition count accepted")
	}
	if err := b.CreateTopic("z", 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestPublishFetchRoundTrip(t *testing.T) {
	b := newBroker(vclocktest.Adopted(t))
	defer b.Close()
	b.CreateTopic("t", 1)
	m, err := b.Publish(context.Background(), "t", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Offset != 0 || m.Partition != 0 {
		t.Fatalf("msg = %+v", m)
	}
	got, err := b.Fetch(context.Background(), "t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Value) != "v" {
		t.Fatalf("fetch = %+v", got)
	}
}

func TestPerPartitionOrdering(t *testing.T) {
	b := newBroker(vclocktest.Adopted(t))
	defer b.Close()
	b.CreateTopic("t", 2)
	key := []byte("same-key")
	for i := 0; i < 20; i++ {
		b.Publish(context.Background(), "t", key, []byte{byte(i)})
	}
	p := partitionOf(key, 2)
	msgs, err := b.Fetch(context.Background(), "t", p, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 20 {
		t.Fatalf("got %d messages, want 20", len(msgs))
	}
	for i, m := range msgs {
		if int(m.Value[0]) != i || m.Offset != int64(i) {
			t.Fatalf("ordering violated at %d: %+v", i, m)
		}
	}
}

func TestKeylessPublishesSpreadRoundRobin(t *testing.T) {
	b := newBroker(vclocktest.Adopted(t))
	defer b.Close()
	b.CreateTopic("t", 4)
	counts := make(map[int]int)
	for i := 0; i < 16; i++ {
		m, err := b.Publish(context.Background(), "t", nil, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Partition]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] != 4 {
			t.Fatalf("partition %d got %d messages, want 4 (%v)", p, counts[p], counts)
		}
	}
}

// parkedFetch starts a long-poll Fetch of partition 0 as a participant and
// lets a modeled minute pass, so the fetcher is parked on the empty log
// when the caller acts. The returned event fires once Fetch has returned.
func parkedFetch(t *testing.T, clock vclock.Clock, b *Cluster, msgs *[]Message, err *error) *vclock.Event {
	t.Helper()
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		*msgs, *err = b.Fetch(context.Background(), "t", 0, 0, 10)
	})
	clock.Sleep(context.Background(), time.Minute)
	if done.Fired() {
		t.Fatalf("Fetch on an empty log returned (%v, %v) instead of parking", *msgs, *err)
	}
	return done
}

func TestFetchLongPollWakesOnPublish(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	var msgs []Message
	var err error
	done := parkedFetch(t, clock, b, &msgs, &err)
	b.Publish(context.Background(), "t", nil, []byte("wake"))
	done.Wait(context.Background())
	if err != nil || len(msgs) != 1 || string(msgs[0].Value) != "wake" {
		t.Fatalf("msgs = %+v, err = %v", msgs, err)
	}
}

func TestFetchAfterCloseReturnsError(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	b.CreateTopic("t", 1)
	var msgs []Message
	var err error
	done := parkedFetch(t, clock, b, &msgs, &err)
	b.Close()
	done.Wait(context.Background())
	if !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("err = %v, want ErrBrokerClosed", err)
	}
}

func TestUnknownTopicErrors(t *testing.T) {
	b := newBroker(vclocktest.Adopted(t))
	defer b.Close()
	if _, err := b.Publish(context.Background(), "ghost", nil, nil); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Fetch(context.Background(), "ghost", 0, 0, 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.EndOffset("ghost", 0); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendCostThrottlesProducer(t *testing.T) {
	// Virtual clock: modeled durations are exact, so the rate assertions
	// cannot be eroded by wall-clock noise under instrumentation or
	// oversubscribed GOMAXPROCS.
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{AppendCost: 10 * time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	start := clock.Now()
	// 400 messages at 10ms each = 4s modeled on a single partition.
	rate, err := Produce(context.Background(), b, "t", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := clock.Since(start); elapsed != 4*time.Second {
		t.Errorf("elapsed = %v, want exactly 4s (throttled)", elapsed)
	}
	if rate != 100 {
		t.Errorf("achieved rate = %g msg/s, want exactly 100 (single partition cap)", rate)
	}
}

func TestMorePartitionsRaiseCapacity(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{AppendCost: 10 * time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("one", 1)
	b.CreateTopic("four", 4)
	r1, err := Produce(context.Background(), b, "one", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Produce(context.Background(), b, "four", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r4 < 3.9*r1 {
		t.Errorf("4-partition rate %.0f not ≈4x 1-partition rate %.0f", r4, r1)
	}
}

func newStreamEnv(t *testing.T, clock vclock.Clock, cores int) *core.Manager {
	t.Helper()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("sp", cores, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	t.Cleanup(mgr.Close)
	p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://sp", Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitRunning(context.Background()); err != nil {
		t.Fatalf("pilot never started: %v", err)
	}
	return mgr
}

func TestProcessorConsumesAll(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 4)
	mgr := newStreamEnv(t, clock, 8)

	var mu sync.Mutex
	seen := map[string]bool{}
	proc, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "p", Topic: "t", Workers: 2,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			mu.Lock()
			seen[string(m.Value)] = true
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := b.Publish(context.Background(), "t", nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d of %d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
	if proc.Throughput() <= 0 {
		t.Error("throughput not measured")
	}
	if proc.LatencyStats().N != n {
		t.Errorf("latency samples = %d, want %d", proc.LatencyStats().N, n)
	}
}

func TestProcessorLatencyGrowsWithSlowHandler(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	mgr := newStreamEnv(t, clock, 2)

	proc, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Topic: "t", Workers: 1,
		Handler: func(ctx context.Context, tc core.TaskContext, _ Message) error {
			tc.Sleep(ctx, 50*time.Millisecond) // slower than arrival
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b.Publish(context.Background(), "t", nil, []byte("x"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, 50); err != nil {
		t.Fatal(err)
	}
	proc.Stop()
	lat := proc.LatencyStats()
	// Later messages queue behind earlier ones: p95 must exceed median.
	if lat.P95 <= lat.Median {
		t.Errorf("latency did not grow under backlog: median=%g p95=%g", lat.Median, lat.P95)
	}
}

func TestProcessorValidation(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	mgr := newStreamEnv(t, clock, 2)
	if _, err := StartGroup(context.Background(), mgr, b, GroupConfig{Topic: "t"}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := StartGroup(context.Background(), mgr, b, GroupConfig{Topic: "ghost", Handler: func(context.Context, core.TaskContext, Message) error { return nil }}); err == nil {
		t.Error("unknown topic accepted")
	}
}

// TestRecordBatchGroupsByStamp pins recordBatch's accounting: one series
// entry per stretch of equal Published stamps, summarizing to exactly what
// per-message record would, and a warm counters whose batches each carry
// one stamp grows by a run per batch, not a float per message (2 048 000
// messages were 16 MiB of samples).
func TestRecordBatchGroupsByStamp(t *testing.T) {
	clock := vclocktest.Adopted(t)
	a := clock.Now()
	b := a.Add(3 * time.Millisecond)
	now := a.Add(10 * time.Millisecond)
	batch := []Message{{Published: a}, {Published: a}, {Published: b}, {Published: a}}

	batched, single := newCounters(clock), newCounters(clock)
	batched.recordBatch(now, batch)
	for i := range batch {
		single.record(now.Sub(batch[i].Published))
	}
	if got, want := batched.LatencyStats(), single.LatencyStats(); got != want {
		t.Fatalf("recordBatch summarizes to %+v, per-message record to %+v", got, want)
	}
	if got := batched.Processed(); got != 4 {
		t.Fatalf("Processed = %d, want 4", got)
	}

	big := make([]Message, 2048)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		stamp := a.Add(time.Duration(i) * time.Microsecond)
		for m := range big {
			big[m].Published = stamp
		}
		batched.recordBatch(now.Add(time.Duration(i)*time.Millisecond), big)
	}
	runtime.ReadMemStats(&after)
	if got := batched.LatencyStats().N; got != 4+1000*2048 {
		t.Fatalf("N = %d, want %d", got, 4+1000*2048)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("1000 single-stamp batches of 2048 allocated %d B", got)
	if got >= 64<<10 {
		t.Fatalf("allocated %d B, want < 64 KiB", got)
	}
}

func TestWindowTumbles(t *testing.T) {
	var mu sync.Mutex
	var flushed [][]Message
	w := NewWindow(time.Minute, func(_ time.Time, msgs []Message) {
		mu.Lock()
		flushed = append(flushed, msgs)
		mu.Unlock()
	})
	base := time.Date(2020, 3, 25, 12, 0, 0, 0, time.UTC)
	w.Add(Message{Published: base.Add(10 * time.Second)})
	w.Add(Message{Published: base.Add(30 * time.Second)})
	w.Add(Message{Published: base.Add(70 * time.Second)}) // next window → flush first
	mu.Lock()
	if len(flushed) != 1 || len(flushed[0]) != 2 {
		t.Fatalf("flushed = %v", flushed)
	}
	mu.Unlock()
	w.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 2 || len(flushed[1]) != 1 {
		t.Fatalf("flushed after Flush = %v", flushed)
	}
}

func TestWindowPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(0, func(time.Time, []Message) {})
}

func TestProduceAtRate(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := oneBroker(ClusterConfig{AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 4)
	rate, err := Produce(context.Background(), b, "t", 200, 100, []byte("x")) // 100 msg/s target
	if err != nil {
		t.Fatal(err)
	}
	if rate > 150 {
		t.Errorf("achieved rate %.0f exceeds 100 msg/s target by too much", rate)
	}
}

// TestFetchSegmentBoundaries covers the segmented log: a fetch never
// crosses a segment, so consumers see at most SegmentSize messages per
// view and loop across boundaries without losing order.
func TestFetchSegmentBoundaries(t *testing.T) {
	b := oneBroker(ClusterConfig{
		AppendCost: time.Microsecond, FetchLatency: time.Microsecond,
		SegmentSize: 4, Clock: vclocktest.Adopted(t),
	})
	defer b.Close()
	b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		if _, err := b.Publish(context.Background(), "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	var off int64
	for _, wantLen := range []int{4, 4, 2} {
		batch, err := b.Fetch(context.Background(), "t", 0, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != wantLen {
			t.Fatalf("fetch at %d returned %d messages, want %d (segment bound)", off, len(batch), wantLen)
		}
		for _, m := range batch {
			if m.Offset != off {
				t.Fatalf("offset %d out of order (want %d)", m.Offset, off)
			}
			got = append(got, m.Value[0])
			off++
		}
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("value order violated at %d: %v", i, got)
		}
	}
}

// TestFetchViewStableWhileAppending pins the zero-copy contract: a view
// returned by Fetch stays valid and immutable while the producer keeps
// appending into the same segment, and appending to the view cannot
// clobber the log.
func TestFetchViewStableWhileAppending(t *testing.T) {
	b := oneBroker(ClusterConfig{
		AppendCost: time.Microsecond, FetchLatency: time.Microsecond,
		SegmentSize: 8, Clock: vclocktest.Adopted(t),
	})
	defer b.Close()
	b.CreateTopic("t", 1)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		b.Publish(ctx, "t", nil, []byte{byte(i)})
	}
	view, err := b.Fetch(ctx, "t", 0, 0, 100)
	if err != nil || len(view) != 3 {
		t.Fatalf("view = %d msgs, %v", len(view), err)
	}
	// Appends land in the same segment, behind the view.
	for i := 3; i < 5; i++ {
		b.Publish(ctx, "t", nil, []byte{byte(i)})
	}
	// A consumer appending to its batch must not write into the log.
	_ = append(view, Message{Value: []byte{99}})
	if len(view) != 3 {
		t.Fatalf("view length changed: %d", len(view))
	}
	for i, m := range view {
		if int(m.Value[0]) != i {
			t.Fatalf("view mutated at %d: %v", i, m.Value)
		}
	}
	all, err := b.Fetch(ctx, "t", 0, 0, 100)
	if err != nil || len(all) != 5 {
		t.Fatalf("full fetch = %d msgs, %v", len(all), err)
	}
	for i, m := range all {
		if int(m.Value[0]) != i {
			t.Fatalf("log clobbered at %d: got %v", i, m.Value)
		}
	}
}

// TestFetchOrWaitChargesLatencyOnce is the empty-poll regression test:
// one FetchOrWait charges the long-poll RTT exactly once, whether data
// was ready or the poll had to park. Before the combined call, a parked
// consumer paid FetchLatency again after waking (a bare wait, then Fetch),
// inflating modeled end-to-end latency by one RTT on every empty poll.
func TestFetchOrWaitChargesLatencyOnce(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const (
		appendCost = 2 * time.Millisecond
		fetchRTT   = 3 * time.Millisecond
	)
	b := oneBroker(ClusterConfig{AppendCost: appendCost, FetchLatency: fetchRTT, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	ctx := context.Background()

	// Data already available: delivery = publish + append + one RTT.
	m0, err := b.Publish(ctx, "t", nil, []byte("ready"))
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := b.FetchOrWait(ctx, "t", []int{0}, []int64{0}, 0, 10)
	if err != nil || len(batch) != 1 {
		t.Fatalf("ready poll = %d msgs, %v", len(batch), err)
	}
	deliveredAt := clock.Now()
	if want := m0.Published.Add(appendCost + fetchRTT); !deliveredAt.Equal(want) {
		t.Fatalf("ready-path delivery at %v, want %v (exactly one RTT)", deliveredAt, want)
	}

	// Empty poll: the consumer parks with its RTT already paid, so a
	// message arriving while parked is delivered at its arrival instant —
	// zero extra charge.
	var gotPublished, gotDelivered time.Time
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		_, batch, err := b.FetchOrWait(ctx, "t", []int{0}, []int64{1}, 0, 10)
		if err != nil || len(batch) != 1 {
			t.Errorf("parked poll = %d msgs, %v", len(batch), err)
			return
		}
		gotPublished = batch[0].Published
		gotDelivered = clock.Now()
	})
	// Publish well after the poll parked (the RTT ends before this).
	if !clock.Sleep(ctx, 10*time.Millisecond) {
		t.Fatal("driver sleep canceled")
	}
	m1, err := b.Publish(ctx, "t", nil, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if !done.Wait(ctx) {
		t.Fatal("parked poll never returned")
	}
	if !gotPublished.Equal(m1.Published) {
		t.Fatalf("parked poll saw Published %v, want %v", gotPublished, m1.Published)
	}
	if !gotDelivered.Equal(m1.Published) {
		t.Fatalf("parked poll delivered at %v, want the arrival instant %v (no second RTT)", gotDelivered, m1.Published)
	}
}

// TestKeylessPlacementDeterministicAcrossProducers pins the round-robin
// cursor contract: with two producers interleaving key-less publishes on
// the virtual clock, every (producer, sequence) → (partition, offset)
// placement is bit-identical across same-seed runs.
func TestKeylessPlacementDeterministicAcrossProducers(t *testing.T) {
	run := func() string {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		defer clock.Leave()
		b := oneBroker(ClusterConfig{AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
		defer b.Close()
		b.CreateTopic("t", 4)
		placements := make([][]string, 2)
		wg := vclock.NewGroup(clock)
		for pr := 0; pr < 2; pr++ {
			pr := pr
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					m, err := b.Publish(context.Background(), "t", nil, []byte{byte(pr), byte(i)})
					if err != nil {
						t.Error(err)
						return
					}
					placements[pr] = append(placements[pr], fmt.Sprintf("p%d.%d->%d@%d", pr, i, m.Partition, m.Offset))
				}
			})
		}
		wg.Wait()
		return strings.Join(placements[0], " ") + " | " + strings.Join(placements[1], " ")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed key-less placement diverged:\n%s\n%s", a, b)
	}
}

// benchDataPlane pushes 100k messages through a 4-partition topic and
// drains them, either through the batched zero-copy path (PublishValues +
// view fetches) or the naive per-message-copy path (per-message Publish,
// consumer copying every batch). The allocs/op gap between the two is the
// number BENCH_baseline.json's allocs_per_op gate locks in.
func benchDataPlane(b *testing.B, naive bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		br := oneBroker(ClusterConfig{AppendCost: 10 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock})
		br.CreateTopic("t", 4)
		const n = 100_000
		payload := make([]byte, 64)
		ctx := context.Background()
		if naive {
			for j := 0; j < n; j++ {
				if _, err := br.Publish(ctx, "t", nil, payload); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			values := make([][]byte, 1024)
			for j := range values {
				values[j] = payload
			}
			for sent := 0; sent < n; {
				k := len(values)
				if n-sent < k {
					k = n - sent
				}
				if err := br.PublishValues(ctx, "t", values[:k]); err != nil {
					b.Fatal(err)
				}
				sent += k
			}
		}
		total := 0
		for q := 0; q < 4; q++ {
			end, _ := br.EndOffset("t", q)
			var off int64
			for off < end {
				batch, err := br.Fetch(ctx, "t", q, off, 1024)
				if err != nil {
					b.Fatal(err)
				}
				if naive {
					batch = append([]Message(nil), batch...)
				}
				total += len(batch)
				off += int64(len(batch))
			}
		}
		br.Close()
		clock.Leave()
		if total != n {
			b.Fatalf("drained %d of %d", total, n)
		}
	}
}

// BenchmarkDataPlaneZeroCopy is the batched zero-copy hot path.
func BenchmarkDataPlaneZeroCopy(b *testing.B) { benchDataPlane(b, false) }

// BenchmarkDataPlaneNaivePerMessage is the per-message-copy baseline the
// zero-copy win is measured against.
func BenchmarkDataPlaneNaivePerMessage(b *testing.B) { benchDataPlane(b, true) }

// pureHandlerRun drives one full produce→process cycle on a fresh Virtual
// clock with PureHandler set (real CPU per message) and fingerprints every
// externally visible measurement.
func pureHandlerRun(t *testing.T) string {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		Name: "b", AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 32, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgr.Close()
	if _, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 8}); err != nil {
		t.Fatal(err)
	}
	proc, err := StartGroup(context.Background(), mgr, b, GroupConfig{
		Name: "p", Topic: "t", Workers: 4, BatchSize: 8,
		CostPerMessage: 2 * time.Millisecond,
		PureHandler:    true,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			acc := uint64(len(m.Value)) // real CPU, pure
			for i := 0; i < 20_000; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			if acc == 42 { // keep the loop alive
				return errors.New("unreachable")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	if _, err := Produce(context.Background(), b, "t", n, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	lat := proc.LatencyStats()
	return fmt.Sprintf("processed=%d tput=%.6f lat{mean=%.9f p50=%.9f p95=%.9f max=%.9f}",
		proc.Processed(), proc.Throughput(), lat.Mean, lat.Median, lat.P95, lat.Max)
}

// TestPureHandlerDeterministicOnVirtualClock pins the compute-phase
// contract at the streaming layer: batches processed as parallel compute
// phases (real CPU, wall-time-racy completion) must leave throughput and
// every latency quantile bit-identical across runs.
func TestPureHandlerDeterministicOnVirtualClock(t *testing.T) {
	a := pureHandlerRun(t)
	for i := 0; i < 4; i++ {
		if b := pureHandlerRun(t); b != a {
			t.Fatalf("run %d diverged:\n%s\n%s", i+2, a, b)
		}
	}
}

// TestSkewedCommitLostWithClosedBroker: a commit held in flight by
// injected commit skew must not land on a broker that closed during the
// skew — the deposed log would apply it and fire OnCommit below the mark
// the cluster's coordinator carried to the new leader (the chaos
// cursor-rewind of TestChaosSkewedCommitOnDeadLeader, at its source).
func TestSkewedCommitLostWithClosedBroker(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	applied := 0
	b := oneBroker(ClusterConfig{Clock: clock, OnCommit: func(string, int, int64, int64) { applied++ }})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.PublishValues(ctx, "t", [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	b.SetCommitDelay(time.Second)
	var err error
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		err = b.Commit("t", 0, 3)
	})
	if !clock.Sleep(ctx, 500*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	b.Close()
	if !done.Wait(ctx) {
		t.Fatal("skewed commit never returned")
	}
	if !errors.Is(err, ErrBrokerClosed) || applied != 0 {
		t.Fatalf("skewed commit on a closed broker returned %v and applied %d commits, want ErrBrokerClosed and none", err, applied)
	}
}
