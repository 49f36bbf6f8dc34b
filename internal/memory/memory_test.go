package memory

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func newCache(t *testing.T, capacity int64) *Cache {
	return NewCache(Config{Name: "c", CapacityBytes: capacity, Bandwidth: 10e9, Clock: vclocktest.Adopted(t)})
}

func TestPutGet(t *testing.T) {
	c := newCache(t, 1<<20)
	if err := c.Put(context.Background(), "k", 42, 100); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(context.Background(), "k")
	if err != nil || !ok || v.(int) != 42 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMissCounts(t *testing.T) {
	c := newCache(t, 1<<20)
	_, ok, _ := c.Get(context.Background(), "absent")
	if ok {
		t.Fatal("phantom hit")
	}
	if c.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1", c.Stats().Misses)
	}
	if c.HitRate() != 0 {
		t.Fatalf("hit rate = %g, want 0", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, 300)
	ctx := context.Background()
	c.Put(ctx, "a", "A", 100)
	c.Put(ctx, "b", "B", 100)
	c.Put(ctx, "c", "C", 100)
	// Touch "a" so "b" is LRU.
	c.Get(ctx, "a")
	c.Put(ctx, "d", "D", 100) // evicts b
	if _, ok, _ := c.Get(ctx, "b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok, _ := c.Get(ctx, "a"); !ok {
		t.Fatal("a wrongly evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	if c.Resident() > 300 {
		t.Fatalf("resident = %d > capacity", c.Resident())
	}
}

func TestUpdateExistingKeyAdjustsResident(t *testing.T) {
	c := newCache(t, 1000)
	ctx := context.Background()
	c.Put(ctx, "k", "v1", 100)
	c.Put(ctx, "k", "v2", 300)
	if c.Resident() != 300 {
		t.Fatalf("resident = %d, want 300", c.Resident())
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	v, _, _ := c.Get(ctx, "k")
	if v.(string) != "v2" {
		t.Fatalf("value = %v, want v2", v)
	}
}

func TestTooLargeRejected(t *testing.T) {
	c := newCache(t, 100)
	if err := c.Put(context.Background(), "k", "v", 200); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	c := newCache(t, 100)
	if err := c.Put(context.Background(), "k", "v", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestGetOrLoad(t *testing.T) {
	c := newCache(t, 1<<20)
	loads := 0
	load := func(context.Context) (any, error) {
		loads++
		return "loaded", nil
	}
	v, err := c.GetOrLoad(context.Background(), "k", 100, load)
	if err != nil || v.(string) != "loaded" {
		t.Fatalf("GetOrLoad = %v %v", v, err)
	}
	v, err = c.GetOrLoad(context.Background(), "k", 100, load)
	if err != nil || v.(string) != "loaded" {
		t.Fatalf("GetOrLoad(2) = %v %v", v, err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1 (second call is a hit)", loads)
	}
}

func TestGetOrLoadPropagatesLoadError(t *testing.T) {
	c := newCache(t, 1<<20)
	boom := errors.New("boom")
	if _, err := c.GetOrLoad(context.Background(), "k", 100, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestGetOrLoadValueTooLargeStillServed(t *testing.T) {
	c := newCache(t, 100)
	v, err := c.GetOrLoad(context.Background(), "k", 1000, func(context.Context) (any, error) {
		return "big", nil
	})
	if err != nil || v.(string) != "big" {
		t.Fatalf("GetOrLoad = %v %v, want served value", v, err)
	}
	if c.Len() != 0 {
		t.Fatal("oversized value was cached")
	}
}

func TestHitRate(t *testing.T) {
	c := newCache(t, 1000)
	ctx := context.Background()
	c.Put(ctx, "k", "v", 10)
	c.Get(ctx, "k")
	c.Get(ctx, "k")
	c.Get(ctx, "absent")
	if r := c.HitRate(); r < 0.6 || r > 0.7 {
		t.Fatalf("hit rate = %g, want 2/3", r)
	}
}

// TestConcurrentAccess keeps real-thread overlap for -race: eight
// participants fill and read the cache on the executor's token while the
// others' accounting reads run in Compute bodies — off-token,
// on their own goroutines — ordered against them by the cache's lock alone.
func TestConcurrentAccess(t *testing.T) {
	c := newCache(t, 1<<20)
	clock := c.cfg.Clock
	ctx := context.Background()
	wg := vclock.NewGroup(clock)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d-%d", g, i%10)
				c.Put(ctx, key, i, 64)
				c.Get(ctx, key)
				c.GetOrLoad(ctx, key, 64, func(context.Context) (any, error) { return i, nil })
				clock.Compute(ctx, func() {
					for k := 0; k < 20; k++ {
						c.Len()
						c.Resident()
						c.Stats()
						c.HitRate()
					}
				})
			}
		})
	}
	wg.Wait()
	if c.Resident() > c.cfg.CapacityBytes {
		t.Fatalf("resident %d exceeds capacity %d", c.Resident(), c.cfg.CapacityBytes)
	}
}

func TestDefaults(t *testing.T) {
	c := NewCache(Config{})
	if c.cfg.CapacityBytes != 4<<30 {
		t.Fatalf("default capacity = %d", c.cfg.CapacityBytes)
	}
}
