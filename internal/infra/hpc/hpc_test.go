package hpc

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

func okPayload(d time.Duration, clock vclock.Clock) infra.Payload {
	return func(ctx context.Context, _ infra.Allocation) error {
		if !clock.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
}

// submit asks c for whole nodes: the description's cores are nodes ×
// CoresPerNode, so the rounding in Submit is exact.
func submit(t *testing.T, c *Cluster, nodes int, walltime time.Duration, payload infra.Payload) saga.Job {
	t.Helper()
	j, err := c.Submit(saga.Description{TotalCores: nodes * c.cfg.CoresPerNode, Walltime: walltime, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// queueWait and runtime read a terminated job's modeled timeline.
func queueWait(j saga.Job) time.Duration { return j.StartTime().Sub(j.SubmitTime()) }

func runtime(j saga.Job) time.Duration { return j.EndTime().Sub(j.StartTime()) }

func TestJobCompletes(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "test", Nodes: 4, CoresPerNode: 8, Clock: clock})
	defer c.Close()
	j := submit(t, c, 2, time.Hour, okPayload(10*time.Second, clock))
	state, err := j.Wait(context.Background())
	if state != saga.Done || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if runtime(j) != 10*time.Second {
		t.Errorf("Runtime = %v, want 10s modeled", runtime(j))
	}
}

func TestAllocationShape(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "alpha", Nodes: 4, CoresPerNode: 16, Clock: clock})
	defer c.Close()
	var got infra.Allocation
	j := submit(t, c, 3, 0, func(_ context.Context, a infra.Allocation) error {
		got = a
		return nil
	})
	j.Wait(context.Background())
	if got.Cores != 48 {
		t.Errorf("Cores = %d, want 48", got.Cores)
	}
	if len(got.Nodes) != 3 {
		t.Errorf("Nodes = %d, want 3", len(got.Nodes))
	}
	if got.Site != infra.Site("alpha") {
		t.Errorf("Site = %q, want alpha", got.Site)
	}
}

func TestCapacityWaitEmerges(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "cap", Nodes: 1, CoresPerNode: 8, Clock: clock})
	defer c.Close()
	j1 := submit(t, c, 1, time.Hour, okPayload(20*time.Second, clock))
	j2 := submit(t, c, 1, time.Hour, okPayload(time.Second, clock))
	j1.Wait(context.Background())
	j2.Wait(context.Background())
	if w := queueWait(j2); w != 20*time.Second {
		t.Errorf("j2 queue wait = %v, want 20s (capacity wait behind j1)", w)
	}
}

func TestExogenousQueueWaitApplied(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "qw", Nodes: 8, CoresPerNode: 8, QueueWait: dist.Constant(30), Clock: clock})
	defer c.Close()
	j := submit(t, c, 1, 0, okPayload(0, clock))
	j.Wait(context.Background())
	if w := queueWait(j); w != 30*time.Second {
		t.Errorf("queue wait = %v, want 30s", w)
	}
}

func TestWalltimeEnforced(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "wt", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Close()
	j := submit(t, c, 1, 5*time.Second, okPayload(time.Hour, clock))
	state, _ := j.Wait(context.Background())
	if state != saga.Failed {
		t.Fatalf("state = %v, want Failed (killed at walltime)", state)
	}
	if !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Errorf("Err = %v, want DeadlineExceeded", j.Err())
	}
	if runtime(j) != 5*time.Second {
		t.Errorf("Runtime = %v, want the 5s walltime", runtime(j))
	}
}

func TestFailedPayload(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "fail", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Close()
	boom := errors.New("boom")
	j := submit(t, c, 1, 0, func(context.Context, infra.Allocation) error { return boom })
	state, err := j.Wait(context.Background())
	if state != saga.Failed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v, want Failed/boom", state, err)
	}
}

func TestCancelPending(t *testing.T) {
	clock := vclocktest.Adopted(t)
	// Long exogenous delay keeps the job pending.
	c := New(Config{Name: "cp", Nodes: 1, CoresPerNode: 1, QueueWait: dist.Constant(3600), Clock: clock})
	defer c.Close()
	j := submit(t, c, 1, 0, okPayload(0, clock))
	j.Cancel()
	state, _ := j.Wait(context.Background())
	if state != saga.Canceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestCancelRunning(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "cr", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Close()
	started := vclock.NewEvent(clock)
	j := submit(t, c, 1, 0, func(ctx context.Context, _ infra.Allocation) error {
		started.Fire()
		clock.Sleep(ctx, time.Hour)
		return ctx.Err()
	})
	started.Wait(context.Background())
	j.Cancel()
	state, _ := j.Wait(context.Background())
	if state != saga.Canceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestTooLargeRejected(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "big", Nodes: 2, CoresPerNode: 8, Clock: clock})
	defer c.Close()
	_, err := c.Submit(saga.Description{TotalCores: 3 * 8, Payload: okPayload(0, clock)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "closed", Nodes: 1, CoresPerNode: 1, Clock: clock})
	c.Close()
	_, err := c.Submit(saga.Description{TotalCores: 1, Payload: okPayload(0, clock)})
	if !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("err = %v, want ErrClusterClosed", err)
	}
}

func TestBackfillLetsSmallJobJumpQueue(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "bf", Nodes: 4, CoresPerNode: 1, Backfill: true, Clock: clock})
	defer c.Close()

	// Occupy 3 of 4 nodes for a long time.
	blocker := submit(t, c, 3, 200*time.Second, okPayload(100*time.Second, clock))
	// Head job needs all 4 nodes — must wait for the blocker.
	head := submit(t, c, 4, 100*time.Second, okPayload(time.Second, clock))
	// Small short job fits in the idle node and finishes before the
	// blocker's walltime: EASY backfill should run it immediately.
	small := submit(t, c, 1, 10*time.Second, okPayload(time.Second, clock))

	state, err := small.Wait(context.Background())
	if state != saga.Done {
		t.Fatalf("small job state=%v err=%v", state, err)
	}
	if queueWait(small) != 0 {
		t.Errorf("small job waited %v; backfill should start it at once", queueWait(small))
	}
	blocker.Wait(context.Background())
	head.Wait(context.Background())
	if queueWait(head) != 100*time.Second {
		t.Errorf("head job waited %v, want the blocker's 100s", queueWait(head))
	}
}

func TestNoBackfillStrictFCFS(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "fcfs", Nodes: 4, CoresPerNode: 1, Backfill: false, Clock: clock})
	defer c.Close()
	blocker := submit(t, c, 3, 100*time.Second, okPayload(50*time.Second, clock))
	head := submit(t, c, 4, 100*time.Second, okPayload(time.Second, clock))
	small := submit(t, c, 1, 10*time.Second, okPayload(time.Second, clock))
	small.Wait(context.Background())
	// Under strict FCFS the small job cannot start before the head job:
	// blocker 50s, then head 1s.
	if queueWait(small) != 51*time.Second {
		t.Errorf("small job waited %v; FCFS should hold it 51s behind blocker and head", queueWait(small))
	}
	blocker.Wait(context.Background())
	head.Wait(context.Background())
}

func TestManyJobsDrainAndUtilization(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := New(Config{Name: "many", Nodes: 4, CoresPerNode: 2, Clock: clock})
	defer c.Close()
	var jobs []saga.Job
	for i := 0; i < 32; i++ {
		jobs = append(jobs, submit(t, c, 1, time.Minute, okPayload(2*time.Second, clock)))
	}
	for _, j := range jobs {
		if s, err := j.Wait(context.Background()); s != saga.Done {
			t.Fatalf("job %s: state=%v err=%v, want Done", j.ID(), s, err)
		}
	}
	c.mu.Lock()
	if len(c.pending) != 0 || len(c.running) != 0 {
		t.Errorf("cluster not drained: depth=%d running=%d", len(c.pending), len(c.running))
	}
	if c.freeNodes != 4 {
		t.Errorf("free nodes = %d, want 4", c.freeNodes)
	}
	c.mu.Unlock()
	if s := c.QueueWaitStats(); s.N != 32 {
		t.Errorf("queue wait samples = %d, want 32", s.N)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	c := New(Config{Name: "nil", Clock: vclocktest.Adopted(t)})
	defer c.Close()
	if _, err := c.Submit(saga.Description{TotalCores: 1}); err == nil {
		t.Fatal("nil payload accepted")
	}
}
