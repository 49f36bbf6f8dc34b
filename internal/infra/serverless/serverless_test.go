package serverless

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func noop(context.Context, infra.Allocation) error { return nil }

func TestColdThenWarm(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{
		Name:      "lambda",
		ColdStart: dist.Constant(2),
		WarmStart: dist.Constant(0.01),
		WarmTTL:   time.Hour,
		Clock:     clock,
	})
	if err := p.Invoke(context.Background(), "f", noop); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(context.Background(), "f", noop); err != nil {
		t.Fatal(err)
	}
	if p.ColdStarts() != 1 || p.WarmStarts() != 1 {
		t.Fatalf("cold=%d warm=%d, want 1/1", p.ColdStarts(), p.WarmStarts())
	}
	if e := clock.Since(vclock.Epoch); e != 2*time.Second+10*time.Millisecond {
		t.Fatalf("two invocations took %v, want 2s cold + 10ms warm", e)
	}
}

func TestWarmPoolPerFunction(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "l", ColdStart: dist.Constant(1), WarmStart: dist.Constant(0.01), WarmTTL: time.Hour, Clock: clock})
	p.Invoke(context.Background(), "f", noop)
	p.Invoke(context.Background(), "g", noop) // different function: cold again
	if p.ColdStarts() != 2 {
		t.Fatalf("cold = %d, want 2 (per-function pools)", p.ColdStarts())
	}
}

func TestWarmTTLExpiry(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "l", ColdStart: dist.Constant(0.5), WarmStart: dist.Constant(0.01), WarmTTL: 5 * time.Second, Clock: clock})
	p.Invoke(context.Background(), "f", noop)
	clock.Sleep(context.Background(), 30*time.Second) // let the container expire
	p.Invoke(context.Background(), "f", noop)
	if p.ColdStarts() != 2 {
		t.Fatalf("cold = %d, want 2 after TTL expiry", p.ColdStarts())
	}
}

func TestConcurrencyLimit(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "l", ColdStart: dist.Constant(0.01), WarmStart: dist.Constant(0.01), ConcurrencyLimit: 2, Clock: clock})
	running, peak := 0, 0 // touched on the executor's token only
	payload := func(ctx context.Context, _ infra.Allocation) error {
		running++
		if running > peak {
			peak = running
		}
		clock.Sleep(ctx, time.Second)
		running--
		return nil
	}
	wg := vclock.NewGroup(clock)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			p.Invoke(context.Background(), "f", payload)
		})
	}
	wg.Wait()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2 (the limit, reached)", peak)
	}
}

func TestPayloadErrorPropagates(t *testing.T) {
	p := New(Config{Name: "l", ColdStart: dist.Constant(0.01), Clock: vclocktest.Adopted(t)})
	boom := errors.New("boom")
	err := p.Invoke(context.Background(), "f", func(context.Context, infra.Allocation) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestInvokeAfterShutdown(t *testing.T) {
	p := New(Config{Name: "l", Clock: vclocktest.Adopted(t)})
	p.Shutdown()
	if err := p.Invoke(context.Background(), "f", noop); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCancellationDuringColdStart(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "l", ColdStart: dist.Constant(3600), Clock: clock})
	ctx, cancel := context.WithCancel(context.Background())
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	if err := p.Invoke(ctx, "f", noop); err == nil {
		t.Fatal("expected cancellation error")
	}
	if e := clock.Since(vclock.Epoch); e != time.Minute {
		t.Fatalf("Invoke returned after %v, want at the cancel instant (1m)", e)
	}
}

func TestAllocationIsSingleCore(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "l", ColdStart: dist.Constant(0.01), Clock: clock})
	var got infra.Allocation
	p.Invoke(context.Background(), "f", func(_ context.Context, a infra.Allocation) error {
		got = a
		return nil
	})
	if got.Cores != 1 {
		t.Fatalf("Cores = %d, want 1", got.Cores)
	}
	if got.Site != infra.Site("l") {
		t.Fatalf("Site = %q, want l", got.Site)
	}
}
