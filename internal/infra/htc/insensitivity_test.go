package htc

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// TestEvictionDrawsJobInsensitive pins the per-job eviction streams:
// submitting an additional concurrent job must not shift any existing
// job's eviction draws. Under the old pool-wide rand.Rand the draws
// interleaved by execution order, so extra load changed every job's
// retry count.
func TestEvictionDrawsJobInsensitive(t *testing.T) {
	run := func(extra bool) map[string]int {
		clock := vclock.NewVirtual(vclock.Epoch)
		p := New(Config{
			Name: "osg", Slots: 8,
			MatchDelay:   dist.Constant(1),
			EvictionRate: 0.5, MaxRetries: 40,
			Clock: clock, Stream: dist.NewStream(7),
		})
		clock.Adopt()
		defer func() {
			clock.Leave()
			p.Shutdown()
		}()
		payload := func(ctx context.Context, _ infra.Allocation) error {
			if !clock.Sleep(ctx, 30*time.Second) {
				return ctx.Err()
			}
			return nil
		}
		base := make([]*Job, 0, 3)
		for i := 0; i < 3; i++ {
			j, err := p.Submit(JobSpec{Name: "base", Runtime: 30 * time.Second, Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, j)
		}
		if extra {
			// Concurrent extra load, submitted before anything completes.
			if _, err := p.Submit(JobSpec{Name: "extra", Runtime: 30 * time.Second, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out := make(map[string]int, len(base))
		for _, j := range base {
			if s, err := wait(ctx, j); s != Completed {
				t.Fatalf("job %s: %v (%v)", j.id, s, err)
			}
			out[j.id] = attempts(j)
		}
		return out
	}

	alone := run(false)
	loaded := run(true)
	shifted := false
	for id, attempts := range alone {
		if attempts < 1 {
			t.Fatalf("job %s reports %d attempts", id, attempts)
		}
		if loaded[id] != attempts {
			shifted = true
			t.Errorf("job %s: %d attempts alone, %d under extra load", id, attempts, loaded[id])
		}
	}
	if !shifted && len(alone) != 3 {
		t.Fatalf("expected 3 base jobs, got %d", len(alone))
	}
}
