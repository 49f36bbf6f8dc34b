package htc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func sleeper(d time.Duration, clock vclock.Clock) infra.Payload {
	return func(ctx context.Context, _ infra.Allocation) error {
		if !clock.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
}

// wait, attempts and evictions are the tests' way into a job's outcome and
// the pool's eviction count; the product reads neither (saga only submits
// and cancels glideins).
func wait(ctx context.Context, j *Job) (State, error) {
	ok := j.done.Wait(ctx)
	j.mu.Lock()
	defer j.mu.Unlock()
	if !ok {
		return j.state, ctx.Err()
	}
	return j.state, j.err
}

func attempts(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

func evictions(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

func TestJobCompletes(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "osg", Slots: 4, Clock: clock})
	defer p.Shutdown()
	j, err := p.Submit(JobSpec{Name: "t", Runtime: time.Second, Payload: sleeper(time.Second, clock)})
	if err != nil {
		t.Fatal(err)
	}
	state, err := wait(context.Background(), j)
	if state != Completed || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if attempts(j) != 1 {
		t.Errorf("Attempts = %d, want 1", attempts(j))
	}
}

func TestMatchDelayApplied(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "slow", Slots: 4, MatchDelay: dist.Constant(10), Clock: clock})
	defer p.Shutdown()
	j, _ := p.Submit(JobSpec{Payload: sleeper(0, clock)})
	wait(context.Background(), j)
	if tt := j.ended.Sub(j.submitted); tt != 10*time.Second {
		t.Errorf("turnaround = %v, want the 10s match delay", tt)
	}
	if s := p.MatchDelayStats(); s.N < 1 {
		t.Error("no match delay samples recorded")
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "lim", Slots: 2, Clock: clock})
	defer p.Shutdown()
	var mu sync.Mutex
	running, peak := 0, 0
	payload := func(ctx context.Context, _ infra.Allocation) error {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		clock.Sleep(ctx, 2*time.Second)
		mu.Lock()
		running--
		mu.Unlock()
		return nil
	}
	jobs := make([]*Job, 8)
	for i := range jobs {
		jobs[i], _ = p.Submit(JobSpec{Runtime: 2 * time.Second, Payload: payload})
	}
	for _, j := range jobs {
		wait(context.Background(), j)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2 (both slots busy, never more)", peak)
	}
}

func TestEvictionWithRetrySucceeds(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev", Slots: 2, EvictionRate: 1.0, MaxRetries: 50, Clock: clock, MatchDelay: dist.Constant(0)})
	defer p.Shutdown()
	// Payload that succeeds only if not interrupted; with retries it should
	// eventually... never succeed at rate 1.0. Use a payload that finishes
	// instantly so eviction cannot land (Runtime=0 disables eviction timer).
	j, _ := p.Submit(JobSpec{Runtime: 0, Payload: sleeper(0, clock)})
	state, _ := wait(context.Background(), j)
	if state != Completed {
		t.Fatalf("state = %v, want Completed", state)
	}
}

func TestEvictionExhaustsRetries(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev2", Slots: 1, EvictionRate: 1.0, MaxRetries: 2, Clock: clock, MatchDelay: dist.Constant(0)})
	defer p.Shutdown()
	// The payload runs far past the runtime estimate the eviction point is
	// sampled from, so the eviction always lands first.
	j, _ := p.Submit(JobSpec{Runtime: 5 * time.Second, Payload: sleeper(120*time.Second, clock)})
	state, err := wait(context.Background(), j)
	if state != Evicted {
		t.Fatalf("state = %v err=%v, want Evicted", state, err)
	}
	if attempts(j) != 3 { // initial + 2 retries
		t.Errorf("Attempts = %d, want 3", attempts(j))
	}
	if evictions(p) != 3 {
		t.Errorf("pool evictions = %d, want 3", evictions(p))
	}
}

func TestNoEvictionAtRateZero(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev0", Slots: 4, EvictionRate: 0, Clock: clock})
	defer p.Shutdown()
	jobs := make([]*Job, 16)
	for i := range jobs {
		jobs[i], _ = p.Submit(JobSpec{Runtime: time.Second, Payload: sleeper(time.Second, clock)})
	}
	for _, j := range jobs {
		if s, _ := wait(context.Background(), j); s != Completed {
			t.Fatalf("state = %v, want Completed", s)
		}
	}
	if evictions(p) != 0 {
		t.Errorf("evictions = %d, want 0", evictions(p))
	}
}

func TestFailedPayload(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "f", Slots: 1, Clock: clock})
	defer p.Shutdown()
	boom := errors.New("boom")
	j, _ := p.Submit(JobSpec{Payload: func(context.Context, infra.Allocation) error { return boom }})
	state, err := wait(context.Background(), j)
	if state != Failed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "c", Slots: 1, Clock: clock})
	p.Shutdown()
	if _, err := p.Submit(JobSpec{Payload: sleeper(0, clock)}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	p := New(Config{Name: "n", Clock: vclocktest.Adopted(t)})
	defer p.Shutdown()
	if _, err := p.Submit(JobSpec{}); err == nil {
		t.Fatal("nil payload accepted")
	}
}
