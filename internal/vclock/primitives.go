package vclock

import (
	"context"
	"sync"
)

// This file provides the clock-aware synchronization primitives that the
// runtime layers (core, saga, infra, streaming) use instead of bare
// channels. They participate in the executor's token handoff — a parked
// waiter is quiescent, and a waker makes waiters runnable *before* it can
// itself park, so virtual time never advances past a pending wake-up.
// Signals (Set, Fire, Done, Release) may come from any goroutine; waits
// that park must come from a participant and panic otherwise.

// Notifier is a level-triggered wake-up signal, the clock-aware
// replacement for the `make(chan struct{}, 1)` kick-channel idiom. Set
// never blocks; Wait returns true when signaled (waking every current
// waiter, who recheck their condition) and false when ctx is done.
type Notifier struct {
	v *Virtual

	mu      sync.Mutex
	set     bool
	waiters []*parker
}

// NewNotifier creates a Notifier for the given clock.
func NewNotifier(c Clock) *Notifier { return &Notifier{v: c} }

// Set signals the notifier: every currently parked waiter becomes
// runnable; with no (live) waiter the signal is latched for the next Wait.
func (n *Notifier) Set() {
	n.mu.Lock()
	ws := n.waiters
	n.waiters = nil
	woke := false
	for _, w := range ws {
		if n.v.wake(w) {
			woke = true
		}
	}
	if !woke {
		n.set = true
	}
	n.mu.Unlock()
}

// Wait parks until the notifier is Set (true) or ctx is done (false). A
// canceled wait leaves any latched signal in place for other waiters.
func (n *Notifier) Wait(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	n.mu.Lock()
	if n.set {
		n.set = false
		n.mu.Unlock()
		return true
	}
	r := n.v.newParker(ctx)
	n.waiters = append(n.waiters, r)
	n.mu.Unlock()
	n.v.park(r)
	if n.v.await(r) {
		return true
	}
	n.mu.Lock()
	removeParker(&n.waiters, r)
	n.mu.Unlock()
	return false
}

// Event is a one-shot broadcast, the clock-aware replacement for the
// `close(done)` idiom. Fire is idempotent.
type Event struct {
	v *Virtual

	mu      sync.Mutex
	fired   bool
	waiters []*parker
}

// NewEvent creates an Event for the given clock.
func NewEvent(c Clock) *Event { return &Event{v: c} }

// Fire marks the event and wakes every waiter. Safe to call repeatedly.
func (e *Event) Fire() {
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		return
	}
	e.fired = true
	ws := e.waiters
	e.waiters = nil
	for _, w := range ws {
		e.v.wake(w)
	}
	e.mu.Unlock()
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// Wait parks until the event fires (true) or ctx is done (false).
func (e *Event) Wait(ctx context.Context) bool {
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		return ctx.Err() == nil
	}
	r := e.v.newParker(ctx)
	e.waiters = append(e.waiters, r)
	e.mu.Unlock()
	e.v.park(r)
	if e.v.await(r) {
		return true
	}
	e.mu.Lock()
	removeParker(&e.waiters, r)
	e.mu.Unlock()
	return false
}

// Group is a clock-aware sync.WaitGroup replacement for waiting out
// participant goroutines at teardown.
type Group struct {
	v *Virtual

	mu      sync.Mutex
	n       int
	waiters []*parker
}

// NewGroup creates a Group for the given clock.
func NewGroup(c Clock) *Group { return &Group{v: c} }

// Add adds delta to the group counter.
func (g *Group) Add(delta int) {
	g.mu.Lock()
	g.n += delta
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	var ws []*parker
	if g.n == 0 {
		ws = g.waiters
		g.waiters = nil
	}
	g.mu.Unlock()
	for _, w := range ws {
		g.v.wake(w)
	}
}

// Done decrements the group counter.
func (g *Group) Done() { g.Add(-1) }

// Wait parks until the counter reaches zero.
func (g *Group) Wait() {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return
	}
	r := g.v.newParker(nil)
	g.waiters = append(g.waiters, r)
	g.mu.Unlock()
	g.v.park(r)
	g.v.await(r)
}

// Sem is a clock-aware counting semaphore (FIFO), the replacement for the
// `chan struct{}` slot-pool idiom.
type Sem struct {
	v   *Virtual
	cap int

	mu      sync.Mutex
	held    int
	waiters []*parker
}

// NewSem creates a semaphore with n slots.
func NewSem(c Clock, n int) *Sem { return &Sem{v: c, cap: n} }

// Acquire takes a slot, parking until one frees up; false means ctx ended
// first.
func (s *Sem) Acquire(ctx context.Context) bool {
	s.mu.Lock()
	if s.held < s.cap {
		if ctx.Err() != nil {
			// Do not take the slot: the caller treats false as
			// not-acquired and will never Release.
			s.mu.Unlock()
			return false
		}
		s.held++
		s.mu.Unlock()
		return true
	}
	r := s.v.newParker(ctx)
	s.waiters = append(s.waiters, r)
	s.mu.Unlock()
	s.v.park(r)
	if s.v.await(r) {
		// The releaser handed its slot directly to us.
		return true
	}
	s.mu.Lock()
	removeParker(&s.waiters, r)
	s.mu.Unlock()
	return false
}

// Release returns a slot, handing it to the longest-parked live waiter.
func (s *Sem) Release() {
	s.mu.Lock()
	for len(s.waiters) > 0 {
		r := s.waiters[0]
		s.waiters = s.waiters[1:]
		if s.v.wake(r) {
			// Slot handed over; held stays constant.
			s.mu.Unlock()
			return
		}
	}
	s.held--
	if s.held < 0 {
		s.mu.Unlock()
		panic("vclock: Sem released more than acquired")
	}
	s.mu.Unlock()
}
