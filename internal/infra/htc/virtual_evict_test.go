package htc

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// Eviction watchdogs must be executor participants: with a Virtual clock
// and a high eviction rate, jobs retry through eviction without panicking
// and in zero wall time.
func TestVirtualClockEvictionWatchdog(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	p := New(Config{
		Name: "evict", Slots: 4,
		MatchDelay:   dist.Constant(1),
		EvictionRate: 0.5, MaxRetries: 12,
		Clock: clock, Stream: dist.NewStream(3),
	})
	clock.Adopt()
	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := p.Submit(JobSpec{
			Name: "e", Runtime: 30 * time.Second,
			Payload: func(ctx context.Context, _ infra.Allocation) error {
				if !clock.Sleep(ctx, 30*time.Second) {
					return ctx.Err()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, j := range jobs {
		if s, err := wait(ctx, j); s != Completed {
			t.Fatalf("job %s: %v (%v), attempts=%d", j.id, s, err, attempts(j))
		}
	}
	if evictions(p) == 0 {
		t.Fatal("expected evictions at rate 0.5")
	}
	clock.Leave()
	p.Shutdown()
}
