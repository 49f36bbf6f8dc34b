package vclock

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// This file pins how a cancellation from outside the scheduled world
// reaches a stalled one — every participant parked, nothing runnable or
// asleep. A park is one receive on its record's grant channel, so nothing
// parked watches its own context: the stall starts one watcher per listed
// cancel group, which nudges the sweep when its Done closes, the next grant
// stops them, and a scope's cancel nudges the sweep itself (an unlisted
// scope has no watcher). CI runs these under -race at GOMAXPROCS=4,
// -count=20 (make test-reuse).

// outsideBound is the wall-clock time an outside signal has to reach a
// stalled world before a test calls it lost.
const outsideBound = 10 * time.Second

// waitResult receives a participant's wait result from outside the world,
// failing the test if none arrives within outsideBound.
func waitResult(t *testing.T, got <-chan bool) bool {
	t.Helper()
	select {
	case ok := <-got:
		return ok
	case <-time.After(outsideBound):
		t.Fatal("the wait never returned: the outside signal did not reach the stalled world")
		return false
	}
}

// quietGoroutines returns the goroutine count once it has held still for
// 10 ms: a world an earlier test tore down may still be letting its
// goroutines return.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 10 {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// settleGoroutines polls, from outside the world, until the goroutine count
// is want, failing the test if it does not get there within outsideBound.
func settleGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(outsideBound)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Fatalf("%d goroutines %s, want %d", got, what, want)
	}
}

// TestOutsideCancelReachesStalledWorld: one participant parks on a
// Notifier, an Event or a Sem and the world stalls; a plain goroutine —
// the test's own — then cancels the wait's context, through each context
// shape the sweep distinguishes. The wait must return false.
func TestOutsideCancelReachesStalledWorld(t *testing.T) {
	bg := context.Background()
	cases := []struct {
		name string
		// mint returns the context the participant waits on and the cancel
		// the outside goroutine calls.
		mint func(t *testing.T, c *Virtual) (context.Context, context.CancelFunc)
	}{
		{"standard", func(t *testing.T, c *Virtual) (context.Context, context.CancelFunc) {
			return context.WithCancel(bg)
		}},
		{"scope canceled by its own cancel", func(t *testing.T, c *Virtual) (context.Context, context.CancelFunc) {
			return c.WithCancel(bg)
		}},
		{"scope under a canceled standard parent", func(t *testing.T, c *Virtual) (context.Context, context.CancelFunc) {
			parent, cancel := context.WithCancel(bg)
			scope, cancelScope := c.WithCancel(parent)
			t.Cleanup(cancelScope)
			return scope, cancel
		}},
		{"standard child of a canceled scope", func(t *testing.T, c *Virtual) (context.Context, context.CancelFunc) {
			scope, cancel := c.WithCancel(bg)
			child, cancelChild := context.WithCancel(scope)
			t.Cleanup(cancelChild)
			return child, cancel
		}},
	}
	waits := []struct {
		name string
		// park returns a wait that parks the calling participant until ctx
		// is done (nothing ever signals it).
		park func(c *Virtual) func(ctx context.Context) bool
	}{
		{"Notifier", func(c *Virtual) func(context.Context) bool { return NewNotifier(c).Wait }},
		{"Event", func(c *Virtual) func(context.Context) bool { return NewEvent(c).Wait }},
		{"Sem", func(c *Virtual) func(context.Context) bool {
			s := NewSem(c, 1)
			return func(ctx context.Context) bool {
				s.Acquire(bg) // the only slot: the next Acquire parks
				return s.Acquire(ctx)
			}
		}},
	}
	for _, tc := range cases {
		for _, w := range waits {
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				c := NewVirtual(Epoch)
				ctx, cancel := tc.mint(t, c)
				wait := w.park(c)
				got := make(chan bool, 1)
				c.Go(func() { got <- wait(ctx) })
				waitParked(t, c, 1)
				cancel()
				if waitResult(t, got) {
					t.Error("the canceled wait reported a signal")
				}
				if c.Stalls() < 1 {
					t.Errorf("Stalls() = 0: the world never stalled before the cancel")
				}
			})
		}
	}
}

// TestStallWatchersStopOnResume: waiters on cancelable contexts stall the
// world, which starts one watcher per context; an outside Fire resumes it,
// and the grant must stop every watcher, so once the waiters have drained
// the goroutine count is back where it stood before the world existed. A
// later stall starts watchers of its own: an outside cancel still gets
// through.
func TestStallWatchersStopOnResume(t *testing.T) {
	const waiters = 4
	bg := context.Background()
	before := quietGoroutines()
	c := NewVirtual(Epoch)
	e := NewEvent(c)
	got := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		c.Go(func() { got <- e.Wait(ctx) })
	}
	waitParked(t, c, waiters)
	if c.Stalls() < 1 {
		t.Fatal("Stalls() = 0 with every waiter parked")
	}
	settleGoroutines(t, before+2*waiters, "in the stalled world (a waiter and a watcher per context)")

	e.Fire()
	for i := 0; i < waiters; i++ {
		if !waitResult(t, got) {
			t.Error("a fired wait reported a cancellation")
		}
	}
	settleGoroutines(t, before, "after the waiters drained: a watcher outlived the grant")

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	c.Go(func() { got <- NewEvent(c).Wait(ctx) })
	waitParked(t, c, 1)
	cancel()
	if waitResult(t, got) {
		t.Error("the canceled wait reported a signal")
	}
	settleGoroutines(t, before, "after the second stall drained")
}

// lateParent is a context whose Done closes before its children hear of
// it: a child registers its cancel through AfterFunc, and hear runs them
// when the test says so. A standard parent does the same in miniature —
// its cancel closes its own Done before it cancels its children.
type lateParent struct {
	context.Context
	done chan struct{}

	mu    sync.Mutex
	after []func()
}

func (p *lateParent) Done() <-chan struct{} { return p.done }

func (p *lateParent) Err() error {
	select {
	case <-p.done:
		return context.Canceled
	default:
		return nil
	}
}

func (p *lateParent) AfterFunc(f func()) func() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.after = append(p.after, f)
	return func() bool { return false }
}

func (p *lateParent) hear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.after {
		f()
	}
}

// TestReStallWatchesScopesTheSweepListed: a waiter parks on a scope whose
// parent's Done closes from outside before the scope's does. The parent's
// watcher nudges a sweep that lists the scope, finds it still open and
// stalls again; that stall must watch the scope, or the scope's closing
// reaches nobody.
func TestReStallWatchesScopesTheSweepListed(t *testing.T) {
	c := NewVirtual(Epoch)
	parent := &lateParent{Context: context.Background(), done: make(chan struct{})}
	scope, cancel := c.WithCancel(parent)
	defer cancel()
	n := NewNotifier(c)
	got := make(chan bool, 1)
	c.Go(func() { got <- n.Wait(scope) })
	waitParked(t, c, 1)
	close(parent.done)
	deadline := time.Now().Add(outsideBound)
	for c.Stalls() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the parent's closing never reached the stalled world")
		}
		time.Sleep(time.Millisecond)
	}
	parent.hear()
	if waitResult(t, got) {
		t.Error("the canceled wait reported a signal")
	}
}
