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

// TestEvictionDrawsJobInsensitive pins the per-glidein eviction streams:
// submitting an additional concurrent job must not shift any existing
// job's eviction draws. Under the old pool-wide rand.Rand the draws
// interleaved by execution order, so extra load changed which jobs were
// evicted, and when. A job's outcome and ending instant are its draws.
func TestEvictionDrawsJobInsensitive(t *testing.T) {
	type outcome struct {
		state saga.JobState
		took  time.Duration
	}
	run := func(extra bool) map[string]outcome {
		clock := vclock.NewVirtual(vclock.Epoch)
		p := New(Config{
			Name: "osg", Slots: 8,
			MatchDelay:   dist.Constant(1),
			EvictionRate: 0.5, MaxRetries: 40,
			Clock: clock, Stream: dist.NewStream(7),
		})
		clock.Adopt()
		defer func() {
			p.Close()
			clock.Leave()
		}()
		payload := func(ctx context.Context, _ infra.Allocation) error {
			if !clock.Sleep(ctx, 30*time.Second) {
				return ctx.Err()
			}
			return nil
		}
		base := make([]saga.Job, 0, 3)
		for i := 0; i < 3; i++ {
			j, err := p.Submit(saga.Description{Name: "base", Walltime: 30 * time.Second, Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, j)
		}
		if extra {
			// Concurrent extra load, submitted before anything completes.
			if _, err := p.Submit(saga.Description{Name: "extra", Walltime: 30 * time.Second, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out := make(map[string]outcome, len(base))
		for _, j := range base {
			s, _ := j.Wait(ctx)
			out[j.ID()] = outcome{s, j.EndTime().Sub(j.SubmitTime())}
		}
		return out
	}

	alone := run(false)
	loaded := run(true)
	evicted := 0
	for id, o := range alone {
		if o.state == saga.Failed {
			evicted++
		}
		if loaded[id] != o {
			t.Errorf("job %s: %v alone, %v under extra load", id, o, loaded[id])
		}
	}
	if len(alone) != 3 || evicted == 0 {
		t.Fatalf("want 3 base jobs and at least one eviction drawn: %v", alone)
	}
}
