package vclock

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// This file pins the cancel scopes Virtual.WithCancel mints: a scope's
// group is polled by the sweep only once its Done can close, and that must
// change what a sweep costs, never what it delivers. CI runs these under
// -race at GOMAXPROCS=4, -count=20 (make test-reuse).

// listedGroups reads how many channels the next sweep polls, at most.
func listedGroups(c *Virtual) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.groups)
}

// TestScopesUnderOneParentPollOneGroup: 128 waiters, each parked on its own
// scope under one standard parent — the glidein shape — leave one group on
// the sweep's list, the parent's; 128 standard children would leave 128.
func TestScopesUnderOneParentPollOneGroup(t *testing.T) {
	const waiters = 128
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	parent, cancelParent := context.WithCancel(bg)
	e := NewEvent(c)
	done := NewGroup(c)
	for i := 0; i < waiters; i++ {
		ctx, cancel := c.WithCancel(parent)
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			defer cancel()
			if e.Wait(ctx) {
				t.Error("a scope waiter reported a signal")
			}
		})
	}
	c.Sleep(bg, time.Minute) // every waiter is parked; a sweep has run
	if got := listedGroups(c); got != 1 {
		t.Fatalf("%d groups listed with %d scope waiters parked, want 1 (the parent's)", got, waiters)
	}
	cancelParent()
	done.Wait()
	if got := c.Since(Epoch); got != time.Minute {
		t.Errorf("the parent's cancel was delivered at %v, want 1m0s", got)
	}
}

// TestScopeParentCloseDeliversBySeq: waiters on three scopes under one
// parent, and one on the parent itself parked between them; canceling the
// parent delivers all four at that instant, in seq order, decision for
// decision what a poll of every context delivers.
func TestScopeParentCloseDeliversBySeq(t *testing.T) {
	c := NewVirtual(Epoch)
	c.StartRecorder(RecorderConfig{WindowFrom: 1, WindowTo: 1 << 20})
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	parent, cancelParent := context.WithCancel(bg)
	var scopes [3]context.Context
	for i := range scopes {
		var cancel context.CancelFunc
		scopes[i], cancel = c.WithCancel(parent)
		defer cancel()
	}
	e, n := NewEvent(c), NewNotifier(c)
	var woke []string
	done := NewGroup(c)
	for _, w := range []struct {
		name string
		wait func() bool
	}{
		{"sleeper1", func() bool { return c.Sleep(scopes[0], time.Hour) }},
		{"parent", func() bool { return n.Wait(parent) }},
		{"event", func() bool { return e.Wait(scopes[1]) }},
		{"sleeper2", func() bool { return c.Sleep(scopes[2], 2*time.Hour) }},
	} {
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			if w.wait() {
				t.Errorf("%s: wait reported a signal", w.name)
			}
			woke = append(woke, fmt.Sprintf("%s@%v", w.name, c.Since(Epoch)))
		})
	}
	c.Sleep(bg, time.Minute) // the four park in the order above
	cancelParent()
	c.Sleep(bg, time.Minute)
	var trace []modelEntry
	for _, d := range c.RecorderState().Window {
		trace = append(trace, modelEntry{d.Kind, d.Seq, d.At.Sub(Epoch)})
	}
	done.Wait()
	if got, want := fmt.Sprint(woke), "[sleeper1@1m0s parent@1m0s event@1m0s sleeper2@1m0s]"; got != want {
		t.Errorf("woke %s, want %s", got, want)
	}
	const want = "[grant/0@0s grant/0@0s grant/0@0s grant/0@0s grant/0@0s advance/1@1m0s " +
		"cancel/2@1m0s cancel/3@1m0s cancel/4@1m0s cancel/5@1m0s grant/2@1m0s grant/3@1m0s grant/4@1m0s grant/5@1m0s advance/6@2m0s]"
	if got := fmt.Sprint(trace); got != want {
		t.Errorf("schedule\n got %s\nwant %s", got, want)
	}
}

// TestScopeStandardChildCanceledByItsOwnCancel: a standard context derived
// from a scope closes its own Done without the scope hearing of it; it is a
// group of its own, polled, so its waiter is delivered at the cancel's
// instant.
func TestScopeStandardChildCanceledByItsOwnCancel(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	scope, cancelScope := c.WithCancel(bg)
	defer cancelScope()
	child, cancelChild := context.WithCancel(scope)
	var waited bool
	var wokeAt time.Duration
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		waited = NewEvent(c).Wait(child)
		wokeAt = c.Since(Epoch)
	})
	c.Sleep(bg, time.Minute)
	cancelChild()
	done.Wait()
	if waited || wokeAt != time.Minute {
		t.Errorf("child waiter woke at %v (signal: %v), want canceled at 1m0s", wokeAt, waited)
	}
}

// TestScopeParkAfterCancel: waits that park on a scope already canceled —
// before the sweep retired its group, and after — are delivered at the
// instant they park.
func TestScopeParkAfterCancel(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	parent, cancelParent := context.WithCancel(bg)
	defer cancelParent()
	scope, cancel := c.WithCancel(parent)
	var got []string
	done := NewGroup(c)
	wait := func(name string, wait func() bool) {
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			got = append(got, fmt.Sprintf("%s:%v@%v", name, wait(), c.Since(Epoch)))
		})
	}
	cancel()
	wait("sleep", func() bool { return c.Sleep(scope, time.Hour) }) // group listed, not yet retired
	c.Sleep(bg, time.Minute)                                        // retired
	wait("event", func() bool { return NewEvent(c).Wait(scope) })
	done.Wait()
	if s, want := fmt.Sprint(got), "[sleep:false@0s event:false@1m0s]"; s != want {
		t.Errorf("waits on a canceled scope returned %s, want %s", s, want)
	}
}

// TestScopeCancelAfterRecycleLeavesGroupAlone: a scope's cancel called
// again after its group was retired and recycled for another scope must not
// list that scope's group.
func TestScopeCancelAfterRecycleLeavesGroupAlone(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	first, cancelFirst := c.WithCancel(bg)
	c.mu.Lock()
	g := c.groupOf[first.Done()]
	c.mu.Unlock()
	cancelFirst()
	c.Sleep(bg, time.Minute) // the sweep retires the first scope's group
	second, cancelSecond := c.WithCancel(bg)
	defer cancelSecond()
	c.mu.Lock()
	recycled := c.groupOf[second.Done()] == g
	c.mu.Unlock()
	if !recycled {
		t.Fatal("the second scope did not get the first one's group: the test exercises no recycling")
	}
	cancelFirst()
	c.mu.Lock()
	listed := g.listed
	c.mu.Unlock()
	if listed || listedGroups(c) != 0 {
		t.Errorf("a stale cancel listed the recycled group (listed %v, %d groups on the list)", listed, listedGroups(c))
	}
}

// TestScopeFireBeforeSweepIsSignal: a Fire issued between a scope's cancel
// and the next sweep claims the waiter as a signal — members are claimed at
// the sweep, never by the cancel.
func TestScopeFireBeforeSweepIsSignal(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	scope, cancel := c.WithCancel(bg)
	e := NewEvent(c)
	var waited bool
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		waited = e.Wait(scope)
	})
	c.Sleep(bg, time.Minute) // the waiter is parked
	cancel()
	e.Fire()
	done.Wait()
	if !waited {
		t.Error("the waiter reported a cancellation: the cancel claimed it before the sweep")
	}
}
