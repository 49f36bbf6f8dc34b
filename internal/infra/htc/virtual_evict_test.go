package htc

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Eviction watchdogs must be executor participants: with a Virtual clock
// and a high eviction rate, evicted glideins fail their jobs and re-match
// without panicking and in zero wall time, and the pool drains.
func TestVirtualClockEvictionWatchdog(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	p := New(Config{
		Name: "evict", Slots: 4,
		MatchDelay:   dist.Constant(1),
		EvictionRate: 0.5, MaxRetries: 12,
		Clock: clock, Stream: dist.NewStream(3),
	})
	clock.Adopt()
	jobs := make([]saga.Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := p.Submit(saga.Description{
			Name: "e", Walltime: 30 * time.Second,
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
		if s, err := j.Wait(ctx); s != saga.Done && s != saga.Failed {
			t.Fatalf("job %s: %v (%v), want Done or evicted", j.ID(), s, err)
		}
	}
	if evictions(p) == 0 {
		t.Fatal("expected evictions at rate 0.5")
	}
	p.Close()
	clock.Leave()
}
