package htc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
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

// submit asks p for a one-slot job whose glidein samples evictions over
// runtime.
func submit(t *testing.T, p *Pool, runtime time.Duration, payload infra.Payload) saga.Job {
	t.Helper()
	j, err := p.Submit(saga.Description{TotalCores: 1, Walltime: runtime, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// evictions is the tests' way into the pool's eviction count; the product
// never reads it.
func evictions(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

func TestJobCompletes(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "osg", Slots: 4, Clock: clock})
	defer p.Close()
	j := submit(t, p, time.Second, sleeper(time.Second, clock))
	state, err := j.Wait(context.Background())
	if state != saga.Done || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if ran := j.EndTime().Sub(j.StartTime()); ran != time.Second {
		t.Errorf("ran %v, want the payload's 1s", ran)
	}
}

func TestMatchDelayApplied(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "slow", Slots: 4, MatchDelay: dist.Constant(10), Clock: clock})
	defer p.Close()
	j := submit(t, p, 0, sleeper(0, clock))
	j.Wait(context.Background())
	if tt := j.EndTime().Sub(j.SubmitTime()); tt != 10*time.Second {
		t.Errorf("turnaround = %v, want the 10s match delay", tt)
	}
	if s := p.MatchDelayStats(); s.N < 1 {
		t.Error("no match delay samples recorded")
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "lim", Slots: 2, Clock: clock})
	defer p.Close()
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
	jobs := make([]saga.Job, 8)
	for i := range jobs {
		jobs[i] = submit(t, p, 2*time.Second, payload)
	}
	for _, j := range jobs {
		j.Wait(context.Background())
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2 (both slots busy, never more)", peak)
	}
}

func TestEvictionWithRetrySucceeds(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev", Slots: 2, EvictionRate: 1.0, MaxRetries: 50, Clock: clock, MatchDelay: dist.Constant(0)})
	defer p.Close()
	// At rate 1.0 every attempt draws an eviction, but without a runtime
	// estimate (no walltime) there is no eviction point to land on.
	j := submit(t, p, 0, sleeper(0, clock))
	if state, err := j.Wait(context.Background()); state != saga.Done {
		t.Fatalf("state = %v (%v), want Done", state, err)
	}
}

func TestEvictionExhaustsRetries(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev2", Slots: 1, EvictionRate: 1.0, MaxRetries: 2, Clock: clock, MatchDelay: dist.Constant(0)})
	defer p.Close()
	// The job's first eviction fails it (slot evicted mid-run)...
	j := submit(t, p, 5*time.Second, sleeper(120*time.Second, clock))
	if state, err := j.Wait(context.Background()); state != saga.Failed || !errors.Is(err, context.Canceled) {
		t.Fatalf("state = %v err=%v, want Failed by an eviction", state, err)
	}
	// ...while a glidein whose job never releases it is re-matched and
	// evicted again until its budget is spent: initial + 2 retries.
	stuck := &job{changed: vclock.NewNotifier(clock), release: vclock.NewEvent(clock)}
	stuck.pctx, stuck.pcancel = context.WithCancel(context.Background())
	rng := p.evictRoot.SplitLabel(1000)
	g := &glidein{job: stuck, runtime: 5 * time.Second, rng: rng, evict: dist.BernoulliFrom(rng, 1)}
	before := evictions(p)
	p.runGlidein(g)
	if g.attempts != 3 {
		t.Errorf("attempts = %d, want 3", g.attempts)
	}
	if got := evictions(p) - before; got != 3 {
		t.Errorf("pool evictions = %d, want 3", got)
	}
}

func TestNoEvictionAtRateZero(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ev0", Slots: 4, EvictionRate: 0, Clock: clock})
	defer p.Close()
	jobs := make([]saga.Job, 16)
	for i := range jobs {
		jobs[i] = submit(t, p, time.Second, sleeper(time.Second, clock))
	}
	for _, j := range jobs {
		if s, _ := j.Wait(context.Background()); s != saga.Done {
			t.Fatalf("state = %v, want Done", s)
		}
	}
	if evictions(p) != 0 {
		t.Errorf("evictions = %d, want 0", evictions(p))
	}
}

func TestFailedPayload(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "f", Slots: 1, Clock: clock})
	defer p.Close()
	boom := errors.New("boom")
	j := submit(t, p, 0, func(context.Context, infra.Allocation) error { return boom })
	state, err := j.Wait(context.Background())
	if state != saga.Failed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "c", Slots: 1, Clock: clock})
	p.Close()
	if _, err := p.Submit(saga.Description{Payload: sleeper(0, clock)}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	p := New(Config{Name: "n", Clock: vclocktest.Adopted(t)})
	defer p.Close()
	if _, err := p.Submit(saga.Description{}); err == nil {
		t.Fatal("nil payload accepted")
	}
}
