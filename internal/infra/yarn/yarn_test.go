package yarn

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

var bg = context.Background()

func TestRequestAndRelease(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 32, AllocDelay: dist.Constant(0.01), Clock: vclocktest.Adopted(t)})
	defer c.Close()
	cs, err := c.requestContainers(bg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("got %d containers, want 4", len(cs))
	}
	if c.FreeCores() != 16 {
		t.Fatalf("FreeCores = %d, want 16", c.FreeCores())
	}
	c.release(cs)
	if c.FreeCores() != 32 {
		t.Fatalf("FreeCores = %d after release, want 32", c.FreeCores())
	}
}

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, AllocDelay: dist.Constant(0.001), Clock: vclocktest.Adopted(t)})
	defer c.Close()
	cs, _ := c.requestContainers(bg, 1, 4)
	c.release(cs)
	c.release(cs)
	if c.FreeCores() != 8 {
		t.Fatalf("FreeCores = %d, want 8 (no double credit)", c.FreeCores())
	}
}

func TestBlocksUntilCapacity(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "y", TotalCores: 8, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Close()
	first, _ := c.requestContainers(bg, 2, 4)

	var grantedAt time.Time
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		cs, err := c.requestContainers(bg, 1, 8)
		if err != nil {
			t.Error(err)
		}
		grantedAt = clock.Now()
		c.release(cs)
	})
	clock.Sleep(bg, time.Minute) // far past the request's 1ms negotiation
	if done.Fired() {
		t.Fatal("second request should block while capacity is held")
	}
	releasedAt := clock.Now()
	c.release(first)
	done.Wait(bg)
	if !grantedAt.Equal(releasedAt) {
		t.Fatalf("second request granted at %v, want the release instant %v", grantedAt, releasedAt)
	}
}

func TestTooLargeRejected(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, Clock: vclocktest.Adopted(t)})
	defer c.Close()
	if _, err := c.requestContainers(bg, 3, 4); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestBadRequestRejected(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, Clock: vclocktest.Adopted(t)})
	defer c.Close()
	if _, err := c.Submit(saga.Description{TotalCores: 4}); err == nil {
		t.Fatal("description without a payload accepted")
	}
	// More cores than the cluster has: the negotiation fails, and the job.
	j, err := c.Submit(saga.Description{TotalCores: 16, Payload: func(context.Context, infra.Allocation) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := j.Wait(bg); s != saga.Failed || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("state = %v err = %v, want Failed with ErrTooLarge", s, err)
	}
}

func TestContextCancelWhileWaiting(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "y", TotalCores: 4, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Close()
	held, _ := c.requestContainers(bg, 1, 4)
	defer c.release(held)
	ctx, cancel := context.WithCancel(bg)
	clock.Go(func() {
		clock.Sleep(bg, time.Minute)
		cancel()
	})
	start := clock.Now()
	if _, err := c.requestContainers(ctx, 1, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := clock.Since(start); waited != time.Minute {
		t.Fatalf("request returned after %v, want at the cancel instant (1m)", waited)
	}
}

// TestCanceledRequestLeavesNoWaiter: a request canceled while parked used to
// leave its event in c.waiters until the next release or Close — against
// a cluster that stays full, one entry per canceled request, without bound.
func TestCanceledRequestLeavesNoWaiter(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "y", TotalCores: 4, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Close()
	held, err := c.requestContainers(bg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(bg)
		clock.Go(func() {
			clock.Sleep(bg, time.Second)
			cancel()
		})
		if _, err := c.requestContainers(ctx, 1, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, err)
		}
	}
	c.mu.Lock()
	n := len(c.waiters)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiters left after 50 canceled requests, want 0", n)
	}
	// A live request still parks and is admitted by the next Release.
	var got []*container
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		got, err = c.requestContainers(bg, 1, 4)
	})
	clock.Sleep(bg, time.Minute)
	if done.Fired() {
		t.Fatal("request admitted on a full cluster")
	}
	c.release(held)
	if !done.Wait(bg) || err != nil || len(got) != 1 {
		t.Fatalf("after Release: containers = %d, err = %v, want 1 and nil", len(got), err)
	}
	c.release(got)
}

func TestConcurrentRequestsNeverOversubscribe(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "y", TotalCores: 16, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Close()
	wg := vclock.NewGroup(clock)
	inUse, peak := 0, 0 // touched on the executor's token only
	for i := 0; i < 12; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			cs, err := c.requestContainers(bg, 1, 4)
			if err != nil {
				t.Error(err)
				return
			}
			inUse += 4
			if inUse > peak {
				peak = inUse
			}
			clock.Sleep(bg, time.Second)
			inUse -= 4
			c.release(cs)
		})
	}
	wg.Wait()
	if peak != 16 {
		t.Fatalf("peak cores in use = %d, want exactly the capacity 16", peak)
	}
	if c.FreeCores() != 16 {
		t.Fatalf("FreeCores = %d, want 16", c.FreeCores())
	}
}

func TestAllocationAggregates(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 16, AllocDelay: dist.Constant(0.001), Clock: vclocktest.Adopted(t)})
	defer c.Close()
	cs, _ := c.requestContainers(bg, 2, 4)
	defer c.release(cs)
	a := c.allocation("app1", cs)
	if a.Cores != 8 || len(a.Nodes) != 2 {
		t.Fatalf("alloc = %+v, want 8 cores 2 nodes", a)
	}
}

func TestShutdownUnblocksWaiters(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "y", TotalCores: 4, AllocDelay: dist.Constant(0.001), Clock: clock})
	held, _ := c.requestContainers(bg, 1, 4)
	_ = held
	var err error
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		_, err = c.requestContainers(bg, 1, 4)
	})
	clock.Sleep(bg, time.Minute) // the request is parked on capacity by now
	c.Close()
	done.Wait(bg)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
