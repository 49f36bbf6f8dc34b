package streaming

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/vclock"
)

func TestOffsetStoreMonotonicSaveAndLowWatermark(t *testing.T) {
	s := NewOffsetStore()
	notified := 0
	s.OnSave(func(group, topic string, partition int) { notified++ })

	s.Save("g1", "t", 0, 5)
	s.Save("g1", "t", 0, 3) // stale: registers nothing new, keeps 5, no notify
	if got, ok := s.Load("g1", "t", 0); !ok || got != 5 {
		t.Fatalf("Load = %d,%v; want 5,true", got, ok)
	}
	if notified != 1 {
		t.Fatalf("stale save notified: %d notifications, want 1", notified)
	}
	if _, ok := s.Load("g1", "t", 1); ok {
		t.Fatal("Load of unregistered key reported ok")
	}
	if _, ok := s.LowWatermark("t", 1); ok {
		t.Fatal("LowWatermark with no registered group reported ok")
	}

	// A fresh group registering at 0 floors the low-watermark even though
	// 0 is "no progress" — that is what protects its unread backlog from
	// retention.
	s.Save("g2", "t", 0, 0)
	if lw, ok := s.LowWatermark("t", 0); !ok || lw != 0 {
		t.Fatalf("LowWatermark = %d,%v; want 0,true", lw, ok)
	}
	s.Save("g2", "t", 0, 2)
	if lw, _ := s.LowWatermark("t", 0); lw != 2 {
		t.Fatalf("LowWatermark = %d, want 2", lw)
	}
}

// TestOffsetStoreOnSaveSubscriptionOrdering pins the subscription
// contract: every applied save notifies all subscribers, in registration
// order, with the saved key's coordinates; subscribers registered after
// a save see only later saves; suppressed saves (stale or
// already-current) notify nobody.
func TestOffsetStoreOnSaveSubscriptionOrdering(t *testing.T) {
	s := NewOffsetStore()
	var order []string
	sub := func(name string) func(group, topic string, partition int) {
		return func(group, topic string, partition int) {
			order = append(order, fmt.Sprintf("%s:%s/%s/%d", name, group, topic, partition))
		}
	}
	s.OnSave(sub("a"))
	s.OnSave(sub("b"))
	s.Save("g", "t", 0, 1) // applied: both notified, a before b
	s.OnSave(sub("c"))
	s.Save("g", "t", 0, 1) // already current: suppressed
	s.Save("g", "t", 0, 0) // stale: suppressed
	s.Save("g", "t", 1, 4) // applied: all three notified, registration order
	want := []string{"a:g/t/0", "b:g/t/0", "a:g/t/1", "b:g/t/1", "c:g/t/1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("notification order = %v, want %v", order, want)
	}
}

// TestOffsetStoreConcurrentSavesStayMonotonic hammers one key from many
// goroutines (run under -race in CI): whatever the interleaving, the
// stored cursor must equal the maximum saved value — never a stale
// overwrite — and every notification must carry a value the store
// actually holds at or above the previous notification's.
func TestOffsetStoreConcurrentSavesStayMonotonic(t *testing.T) {
	const (
		savers  = 8
		perSave = 200
	)
	s := NewOffsetStore()
	var mu sync.Mutex
	var lastSeen int64 = -1
	rewinds := 0
	s.OnSave(func(group, topic string, partition int) {
		// Load inside the callback observes the store after the applied
		// save; values must never run backwards from a subscriber's view.
		// The load and the comparison share one critical section: a
		// callback preempted between them would otherwise report a value
		// already overtaken by a later callback's as a rewind.
		mu.Lock()
		v, ok := s.Load(group, topic, partition)
		if !ok || v < lastSeen {
			rewinds++
		} else {
			lastSeen = v
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < savers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= perSave; i++ {
				s.Save("g", "t", 0, int64(i*savers+g))
			}
		}(g)
	}
	wg.Wait()
	// Max saved value: i=perSave maximized over g.
	want := int64(perSave*savers + savers - 1)
	if got, ok := s.Load("g", "t", 0); !ok || got != want {
		t.Fatalf("final cursor = %d,%v; want %d (monotonic max)", got, ok, want)
	}
	if rewinds != 0 {
		t.Fatalf("%d subscriber observations ran backwards", rewinds)
	}
	if lw, ok := s.LowWatermark("t", 0); !ok || lw != want {
		t.Fatalf("low-watermark = %d,%v; want %d", lw, ok, want)
	}
}

// TestGroupRestartResumesFromPersistedOffsets is the offset-persistence
// acceptance test: a consumer group wired to an OffsetStore is stopped
// after draining a first wave of messages and restarted (same name, same
// store) for a second wave. The restarted generation must load its
// cursors from the store and resume with zero duplicates and zero gaps
// across the whole stream.
func TestGroupRestartResumesFromPersistedOffsets(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{
		AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	const parts = 4
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	mgr := newVirtualStreamEnv(t, clock, 8)
	defer mgr.Close()
	store := NewOffsetStore()

	var mu sync.Mutex
	seen := map[string]int{}
	ctx := context.Background()
	runWave := func(wave, n int) {
		t.Helper()
		g, err := StartGroup(ctx, mgr, b, GroupConfig{
			Name: "g", Topic: "t", Workers: 2, BatchSize: 16,
			CostPerMessage: time.Millisecond,
			Offsets:        store,
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
		values := make([][]byte, n)
		for i := range values {
			values[i] = []byte("x")
		}
		if err := b.PublishValues(ctx, "t", values); err != nil {
			t.Fatal(err)
		}
		deadline := clock.Now().Add(5 * time.Minute)
		for g.Processed() < int64(n) {
			if clock.Now().After(deadline) {
				t.Fatalf("wave %d: stuck at %d/%d processed", wave, g.Processed(), n)
			}
			clock.Sleep(ctx, 10*time.Millisecond)
		}
		g.Stop()
	}
	const wave = 400
	runWave(1, wave)
	runWave(2, wave)

	// Zero gaps, zero duplicates across both generations: every offset of
	// every partition handled exactly once.
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2*wave {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), 2*wave)
	}
	perPart := 2 * wave / parts
	for p := 0; p < parts; p++ {
		for o := 0; o < perPart; o++ {
			if n := seen[fmt.Sprintf("%d@%d", p, o)]; n != 1 {
				t.Fatalf("partition %d offset %d handled %d times", p, o, n)
			}
		}
	}
	// The persisted cursors ended at the head of every partition.
	for p := 0; p < parts; p++ {
		if next, ok := store.Load("g", "t", p); !ok || next != int64(perPart) {
			t.Fatalf("persisted cursor for partition %d = %d,%v; want %d", p, next, ok, perPart)
		}
	}
}

// TestRestartRedeliversExactlyTheUncommittedBatch pins the redelivery
// contract when a consumer dies after processing a batch but before
// committing it: the restarted consumer (resuming from the persisted
// cursor, read back from the store as a deployment restart would)
// receives exactly the uncommitted batch [B, 2B) — every offset of it,
// and nothing from the committed batch before it.
func TestRestartRedeliversExactlyTheUncommittedBatch(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := oneBroker(ClusterConfig{AppendCost: 10 * time.Microsecond, Clock: clock})
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	store := NewOffsetStore()
	ctx := context.Background()
	const B = 16
	values := make([][]byte, 2*B)
	for i := range values {
		values[i] = []byte{byte(i)}
	}
	if err := b.PublishValues(ctx, "t", values); err != nil {
		t.Fatal(err)
	}

	// First incarnation: processes batch 1 and commits+persists it, then
	// processes batch 2 and crashes before committing.
	batch1, err := b.Fetch(ctx, "t", 0, 0, B)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch1) != B {
		t.Fatalf("batch 1: %d messages, want %d", len(batch1), B)
	}
	if err := b.Commit("t", 0, B); err != nil {
		t.Fatal(err)
	}
	store.Save("g", "t", 0, B)
	if batch2, err := b.Fetch(ctx, "t", 0, B, B); err != nil || len(batch2) != B {
		t.Fatalf("batch 2 before crash: %d messages, %v", len(batch2), err)
	}
	// No commit, no save: the crash point.

	// Restart from the persisted cursor.
	cursor, ok := store.Load("g", "t", 0)
	if !ok || cursor != B {
		t.Fatalf("recovered cursor = %d,%v; want %d", cursor, ok, B)
	}
	redelivered, err := b.Fetch(ctx, "t", 0, cursor, 4*B)
	if err != nil {
		t.Fatal(err)
	}
	if len(redelivered) != B {
		t.Fatalf("redelivered %d messages, want exactly the uncommitted %d", len(redelivered), B)
	}
	for i, m := range redelivered {
		if want := int64(B + i); m.Offset != want {
			t.Fatalf("redelivered[%d] is offset %d, want %d", i, m.Offset, want)
		}
	}
}
