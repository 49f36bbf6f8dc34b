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

// waitq is a primitive's FIFO of parked records, linked through
// parker.wnext and guarded by the primitive's mutex; wake order is
// registration order — wake order is the schedule. A link inside a record
// that its goroutine re-arms is safe under two obligations (DESIGN.md
// "Participant record"): a record is on at most one waitq and on none once
// its wait has returned, and pop clears the link *before* the caller wakes
// the record — a signal from outside the scheduled world grants at once, and
// the woken goroutine may re-link the record while the signaller walks on.
type waitq struct{ head, tail *parker }

func (q *waitq) push(r *parker) {
	if q.tail != nil {
		q.tail.wnext = r
	} else {
		q.head = r
	}
	q.tail = r
}

// pop unlinks and returns the longest-parked record, nil when empty.
func (q *waitq) pop() *parker {
	r := q.head
	if r != nil {
		if q.head = r.wnext; q.head == nil {
			q.tail = nil
		}
		r.wnext = nil
	}
	return r
}

// remove unlinks r wherever it sits; a no-op when a signal already popped it.
func (q *waitq) remove(r *parker) {
	var prev *parker
	for p := &q.head; *p != nil; prev, p = *p, &(*p).wnext {
		if *p == r {
			if *p = r.wnext; q.tail == r {
				q.tail = prev
			}
			r.wnext = nil
			return
		}
	}
}

// wakeAll pops and wakes every record on q in order; true if any was claimed.
// Like every signaller it holds the primitive's mutex from pop through wake:
// a canceled waiter needs it to unlink, so cannot re-arm under its hands.
func (c *Virtual) wakeAll(q *waitq) (woke bool) {
	for r := q.pop(); r != nil; r = q.pop() {
		if c.wake(r) {
			woke = true
		}
	}
	return woke
}

// waitOn parks the calling participant on q, the waiter queue of a
// primitive whose mutex mu the caller holds (released here), until a signal
// pops and wakes its record (true) or ctx is done (false; the canceled
// waiter unlinks itself, so a wait never returns with its record enrolled).
func (c *Virtual) waitOn(ctx context.Context, mu *sync.Mutex, q *waitq) bool {
	r := c.newParker(ctx, mu)
	q.push(r)
	mu.Unlock()
	c.park(r)
	if c.await(r) {
		return true
	}
	mu.Lock()
	q.remove(r)
	mu.Unlock()
	return false
}

// Notifier is a level-triggered wake-up signal, the clock-aware
// replacement for the `make(chan struct{}, 1)` kick-channel idiom. Set
// never blocks; Wait returns true when signaled (waking every current
// waiter, who recheck their condition) and false when ctx is done.
type Notifier struct {
	v *Virtual

	mu      sync.Mutex
	set     bool
	waiters waitq
}

// NewNotifier creates a Notifier for the given clock.
func NewNotifier(c Clock) *Notifier { return &Notifier{v: c} }

// Set signals the notifier: every currently parked waiter becomes
// runnable; with no (live) waiter the signal is latched for the next Wait.
func (n *Notifier) Set() {
	n.mu.Lock()
	if !n.v.wakeAll(&n.waiters) {
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
	return n.v.waitOn(ctx, &n.mu, &n.waiters)
}

// Event is a broadcast latch, the clock-aware replacement for the
// `close(done)` idiom: fired, it stays fired (Fire is idempotent) until its
// single waiting owner, if it has one, re-arms it between waits (Reset).
type Event struct {
	v *Virtual

	mu      sync.Mutex
	fired   bool
	waiters waitq
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
	e.v.wakeAll(&e.waiters)
	e.mu.Unlock()
}

// Reset re-arms the event for another wait. Owner-only: the caller is the
// one goroutine that ever waits on e, so nothing is parked on it here. A
// holder from before the Reset can still Fire e; an owner that hands e out
// tracks which arming each holder belongs to (streaming's waiter does).
func (e *Event) Reset() {
	e.mu.Lock()
	e.fired = false
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
	return e.v.waitOn(ctx, &e.mu, &e.waiters)
}

// Group is a clock-aware sync.WaitGroup replacement for waiting out
// participant goroutines at teardown.
type Group struct {
	v *Virtual

	mu      sync.Mutex
	n       int
	waiters waitq
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
	if g.n == 0 {
		g.v.wakeAll(&g.waiters)
	}
	g.mu.Unlock()
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
	g.v.waitOn(context.Background(), &g.mu, &g.waiters)
}

// Sem is a clock-aware counting semaphore (FIFO), the replacement for the
// `chan struct{}` slot-pool idiom.
type Sem struct {
	v   *Virtual
	cap int

	mu      sync.Mutex
	held    int
	waiters waitq
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
	// True: the releaser handed its slot directly to us.
	return s.v.waitOn(ctx, &s.mu, &s.waiters)
}

// Release returns a slot, handing it to the longest-parked live waiter.
func (s *Sem) Release() {
	s.mu.Lock()
	for r := s.waiters.pop(); r != nil; r = s.waiters.pop() {
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
