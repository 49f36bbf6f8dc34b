package vclock

import (
	"context"
	"sync"
	"time"
)

// Virtual is a conservative virtual-time executor: a clock whose modeled
// time advances to the earliest sleeper deadline whenever every registered
// goroutine is quiescent (blocked in Sleep or parked in a clock-aware
// primitive), so modeled sleeps cost zero wall time.
//
// The executor is cooperative and single-runner: at most one registered
// participant executes at a time, holding an implicit execution token.
// The token is released when the holder sleeps, parks (Notifier, Event,
// Group, Sem — see primitives.go) or exits, and is handed to the next
// runnable participant in FIFO order; when no participant is runnable,
// time jumps to the earliest sleeper's deadline and that sleeper runs.
// Ties on deadline wake in Sleep-call order. This serialization makes a
// same-seed run bit-reproducible: every Now() reads the same modeled
// instant in every run, and every scheduling decision happens in the same
// order.
//
// Context cancellation is delivered through the scheduler: every Sleep and
// primitive Wait on a cancelable context enrolls in the cancel group of
// its ctx.Done() channel, and before the executor advances modeled time
// (or declares the world stalled) it polls each group's channel once (a
// cancel scope's, from WithCancel, only once it can have closed) and
// makes every member of a closed one runnable at the *current* instant,
// in seq order. A cancellation issued by a participant therefore takes
// effect at the modeled time it was issued — never after a spurious time
// jump — which keeps teardown paths (walltime kills, evictions, processor
// stops) deterministic. A park is one receive on the record's grant: a
// cancellation from outside the scheduled world (a wall-clock timeout on a
// hung run) reaches a stalled world through the watchers the stall starts
// (watchLocked) or, for a scope, through its cancel's nudge.
//
// Participation contract:
//
//   - Every goroutine that touches the clock (or state shared with clock
//     users) must be a participant: spawned via Go, or registered via
//     Adopt (the experiment driver does this) and deregistered via Leave.
//   - Participants must not block on bare channels/sync primitives fed by
//     other participants; they park through Sleep or the clock-aware
//     primitives instead. A bare block holds the token and stalls the
//     world (a real deadlock, surfaced by the caller's context timeout).
type Virtual struct {
	mu  sync.Mutex
	now time.Time
	seq uint64
	// current is the token holder's record, nil while the token is free: set
	// by the two grant sites, cleared by Sleep, park, Compute and exit.
	current *parker

	// runq is a head-indexed FIFO deque: pops advance runqHead instead of
	// re-slicing, so the backing array's capacity is reused across
	// grant/readmit cycles instead of being reallocated by every
	// append-after-pop. Empty means runqHead == len(runq).
	runq     []*parker
	runqHead int

	// sleepers is a binary min-heap keyed by (deadline, seq): the next
	// sleeper to wake is peeked in O(1) and popped in O(log n), and the
	// (deadline, Sleep-ordinal) key reproduces exactly the order the old
	// linear scan selected (ties on deadline wake in Sleep-call order;
	// both keys together are unique, so the order is total).
	sleepers sleepHeap

	// groups holds one listed cancelGroup per distinct Done channel among
	// the armed cancelable records, so the cancellation sweep polls each
	// context once however many sleepers and waiters share it; groupOf
	// finds a record's group, listed or not (a scope's group is unlisted
	// until its context can close, see WithCancel). Retired groups are
	// recycled through free and due is the sweep's scratch: a sweep
	// allocates nothing in steady state.
	groups  []*cancelGroup
	groupOf map[<-chan struct{}]*cancelGroup
	free    []*cancelGroup
	due     []*parker

	participants int
	stalls       uint64
	resume       chan struct{} // a stall's watchers stop when the next grant closes it

	// idle holds the records of participants whose fn returned while others
	// were runnable; each one's goroutine waits on its grant channel for the
	// next Go. They are released at the first empty-run-queue juncture
	// (DESIGN.md "Participant record").
	idle []*parker

	// Parallel compute phase (compute.go). computing counts Compute bodies
	// currently executing off-token; computeDone holds finished bodies
	// awaiting deterministic readmission; computeSeq numbers Compute calls
	// in token order (the spawn ordinal that fixes the join order).
	computing   int
	computeSeq  uint64
	computeDone []*parker

	// rec, when non-nil, records every scheduling decision (trace.go).
	rec *recorder
}

// grant is a participant's execution-token handoff channel, made once with
// its record. One buffered slot, so the granter never blocks: a record is
// granted once per arming and its goroutine takes that grant before it can
// arm again.
type grant chan struct{}

// parker is a participant's record, made by newRecord and re-armed for every
// Sleep, primitive wait and Compute rejoin of that goroutine, so a park
// allocates nothing (DESIGN.md "Participant record"). Armed, it is the
// goroutine's registration in the run queue, the sleeper heap (deadline
// set) or a primitive's waiter queue, plus — if its context can be
// canceled — its cancel group; it is claimed exactly once per arming: by
// its primitive's signal, by the scheduler's deadline wake, or by the
// cancellation sweep.
type parker struct {
	g        grant
	done     <-chan struct{} // the waiter's ctx.Done(), read once per arming; nil: not cancelable
	deadline time.Time       // zero: not sleeping
	seq      uint64
	claimed  bool
	canceled bool

	// heapIdx is this parker's position in the sleeper heap (-1 when not
	// enrolled); the heap maintains it so the cancellation sweep can
	// remove an arbitrary sleeper in O(log n).
	heapIdx int

	// cg is the cancel group this record is enrolled in (nil: none);
	// cprev/cnext link the group's members.
	cg           *cancelGroup
	cprev, cnext *parker

	// wnext links the waiter queue of the primitive this record is parked
	// on (waitq, primitives.go); guarded by that primitive's mutex.
	wnext *parker

	// fn is the next body an idle worker runs, set by Go before it queues
	// the record; nil in the grant that releases the worker.
	fn func()
}

// arm readies the token holder's record for its next wait; its previous
// wait has returned, so it is on no list. Caller holds c.mu.
func (r *parker) arm(done <-chan struct{}, deadline time.Time, seq uint64) {
	r.done, r.deadline, r.seq = done, deadline, seq
	r.claimed, r.canceled = false, false
}

// cancelGroup is the set of enrolled records whose contexts share one Done
// channel, linked through parker.cprev/cnext. Member order is irrelevant:
// the sweep delivers by seq.
//
// A listed group is on c.groups and the sweep polls it. A scope's group
// (WithCancel) is unlisted until its Done can close: it hangs under up,
// the group of its parent's Done, linked with its siblings through
// kprev/knext from up.kids, and is listed by its own cancel or when the
// sweep finds up closed.
type cancelGroup struct {
	done    <-chan struct{}
	members *parker
	listed  bool

	up, kids, kprev, knext *cancelGroup
}

// newGroupLocked registers an unlisted group for done, recycled from the
// free list when one is there. Caller holds c.mu.
func (c *Virtual) newGroupLocked(done <-chan struct{}) *cancelGroup {
	var g *cancelGroup
	if n := len(c.free); n > 0 {
		g, c.free = c.free[n-1], c.free[:n-1]
	} else {
		g = new(cancelGroup)
	}
	g.done = done
	c.groupOf[done] = g
	return g
}

// listLocked puts g on the sweep's list, unhooking it from the group it
// hung under. Caller holds c.mu.
func (c *Virtual) listLocked(g *cancelGroup) {
	if u := g.up; u != nil {
		if g.kprev != nil {
			g.kprev.knext = g.knext
		} else {
			u.kids = g.knext
		}
		if g.knext != nil {
			g.knext.kprev = g.kprev
		}
		g.up, g.kprev, g.knext = nil, nil, nil
	}
	g.listed = true
	c.groups = append(c.groups, g)
}

// WithCancel is context.WithCancel for a context the cancellation sweep
// does not poll until it can be closed — a cancel scope. Its Done closes
// only by its own cancel or by its parent's closing: the returned cancel
// lists the scope's group before it cancels, and the sweep lists a closed
// group's scopes before it polls them. A sweep therefore finds the due set
// a poll of every group finds, while a scope nobody has canceled costs it
// nothing; the scopes of one parent cost it one poll, of the parent. A
// standard context derived from a scope has a Done of its own and is
// polled as any other (DESIGN.md "Cancellation").
func (c *Virtual) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	done := ctx.Done()
	select {
	case <-done:
		// Minted under a done parent (Done may be the runtime's shared
		// closed channel): a standard context, enrolled as any other.
		return ctx, cancel
	default:
	}
	pdone := parent.Done()
	c.mu.Lock()
	g := c.newGroupLocked(done)
	if pdone != nil {
		u := c.groupOf[pdone]
		if u == nil {
			u = c.newGroupLocked(pdone)
			c.listLocked(u)
		}
		g.up = u
		if g.knext = u.kids; g.knext != nil {
			g.knext.kprev = g
		}
		u.kids = g
	}
	c.mu.Unlock()
	return ctx, func() {
		// List first, so the sweep the nudge runs (a stall watches no
		// unlisted scope) finds the group listed. A group retired (and
		// maybe recycled) since is no longer this scope's.
		c.mu.Lock()
		if c.groupOf[done] == g && !g.listed {
			c.listLocked(g)
		}
		c.mu.Unlock()
		cancel()
		c.nudge()
	}
}

// enroll links a sleeping or parked record into the cancel group of its
// Done channel; a record that cannot be canceled goes on no list. Caller
// holds c.mu.
func (c *Virtual) enroll(r *parker) {
	if r.done == nil {
		return
	}
	g := c.groupOf[r.done]
	if g == nil {
		g = c.newGroupLocked(r.done)
		c.listLocked(g)
	}
	if r.cnext = g.members; r.cnext != nil {
		r.cnext.cprev = r
	}
	g.members, r.cg = r, g
}

// unenroll unlinks r from its cancel group in O(1); a no-op when it is in
// none. An emptied group stays registered until a sweep retires it.
// Caller holds c.mu.
func (r *parker) unenroll() {
	g := r.cg
	if g == nil {
		return
	}
	if r.cprev != nil {
		r.cprev.cnext = r.cnext
	} else {
		g.members = r.cnext
	}
	if r.cnext != nil {
		r.cnext.cprev = r.cprev
	}
	r.cg, r.cprev, r.cnext = nil, nil, nil
}

// ---------------------------------------------------------------------------
// Sleeper heap
// ---------------------------------------------------------------------------

// sleepHeap is a binary min-heap of sleepers ordered by (deadline, seq).
// The key is unique per entry (seq is), so the pop order is a total order
// identical to the linear minimum scan it replaced — the heap changes the
// cost of a decision, never the decision (TestSleeperHeapMatchesLinearScan
// proves the equivalence property over randomized operation sequences).
type sleepHeap []*parker

// sleepBefore is the scheduling order: earlier deadline first, ties broken
// by Sleep-call order.
func sleepBefore(a, b *parker) bool {
	if a.deadline.Equal(b.deadline) {
		return a.seq < b.seq
	}
	return a.deadline.Before(b.deadline)
}

func (h sleepHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h sleepHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !sleepBefore(h[i], h[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h sleepHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && sleepBefore(h[r], h[l]) {
			m = r
		}
		if !sleepBefore(h[m], h[i]) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *sleepHeap) push(r *parker) {
	*h = append(*h, r)
	r.heapIdx = len(*h) - 1
	h.up(r.heapIdx)
}

// popMin removes and returns the sleeper with the smallest (deadline, seq).
func (h *sleepHeap) popMin() *parker {
	old := *h
	r := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[0].heapIdx = 0
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	r.heapIdx = -1
	return r
}

// removeIdx removes the sleeper at heap index i (the cancellation sweep's
// arbitrary-position removal).
func (h *sleepHeap) removeIdx(i int) {
	old := *h
	last := len(old) - 1
	r := old[i]
	if i != last {
		old[i] = old[last]
		old[i].heapIdx = i
	}
	old[last] = nil
	*h = old[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	r.heapIdx = -1
}

// NewVirtual creates a virtual-time executor starting at the given modeled
// time. The calling goroutine is NOT registered; call Adopt (or spawn all
// work via Go) before touching the clock.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start, groupOf: make(map[<-chan struct{}]*cancelGroup)}
}

// Now returns the current modeled time.
func (c *Virtual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the modeled time elapsed since t.
func (c *Virtual) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep parks the calling participant until modeled time reaches now+d,
// which costs no wall time. It reports whether the full duration elapsed
// (false means ctx was canceled first).
func (c *Virtual) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	done := ctx.Done()
	c.mu.Lock()
	r := c.current
	if r == nil {
		c.mu.Unlock()
		panic("vclock: Sleep on Virtual clock from an unregistered goroutine (use Go or Adopt)")
	}
	c.seq++
	r.arm(done, c.now.Add(d), c.seq)
	c.sleepers.push(r)
	c.enroll(r)
	c.current = nil
	c.scheduleLocked()
	c.mu.Unlock()
	return c.await(r)
}

// await blocks until r's grant arrives, whatever its context: only the
// sweep claims a cancellation, and a stalled world's watchers nudge it. It
// reports whether the wake-up was a signal (true) or a cancellation.
func (c *Virtual) await(r *parker) bool {
	<-r.g
	// r.canceled was set before the grant was sent; the channel receive
	// orders the read after it.
	return !r.canceled
}

// Go spawns fn as a registered participant. It may be called from inside
// or outside the scheduled world; fn starts once the scheduler hands it
// the execution token. An idle worker — a goroutine whose participant has
// just finished — runs fn if there is one, so a steady stream of short
// participants does not start, and grow the stack of, a goroutine apiece.
func (c *Virtual) Go(fn func()) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		r := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		// Its last wait has returned, so the record is on no list (heapIdx
		// −1, no links); re-armed with seq 0 it is what newRecord makes, and
		// the run-queue entry and its grant read exactly as a fresh one's.
		r.arm(nil, time.Time{}, 0)
		r.fn = fn
		c.joinLocked(r)
		c.mu.Unlock()
		return
	}
	r := newRecord()
	c.joinLocked(r)
	c.mu.Unlock()
	go c.run(r, fn)
}

// run is a spawned participant's goroutine: fn between taking the token and
// leaving the world, then, while it is kept as an idle worker, each body Go
// hands it, until it is released. A Goexit or panic in a body leaves the
// world as before and ends the goroutine, so it is never reused.
func (c *Virtual) run(r *parker, fn func()) {
	done := false
	defer func() {
		if !done {
			c.exit()
		}
	}()
	<-r.g
	for fn != nil {
		fn()
		if !c.retire(r) {
			break
		}
		<-r.g
		fn, r.fn = r.fn, nil
	}
	done = true
}

// Adopt registers the calling goroutine as a participant and blocks until
// it holds the execution token. Experiment drivers call this once, before
// interacting with any component on the clock, and pair it with Leave.
func (c *Virtual) Adopt() {
	r := newRecord()
	c.mu.Lock()
	c.joinLocked(r)
	c.mu.Unlock()
	<-r.g
}

// newRecord makes a participant's record and grant channel; they serve
// every wait it makes, and every participant an idle worker runs after it.
func newRecord() *parker { return &parker{g: make(grant, 1), heapIdx: -1} }

// joinLocked registers a new participant and queues its record for the
// token. Caller holds c.mu.
func (c *Virtual) joinLocked(r *parker) {
	c.participants++
	c.runq = append(c.runq, r)
	c.scheduleLocked()
}

// Leave deregisters the calling participant (the inverse of Adopt) and
// releases the execution token.
func (c *Virtual) Leave() { c.exit() }

// Stalls counts the times the scheduler found participants registered but
// nothing runnable and nothing sleeping — i.e. everyone parked waiting for
// an external signal. A rising count with no external waker in sight is a
// deadlock (see DESIGN.md, "Deadlock versus starvation").
func (c *Virtual) Stalls() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stalls
}

// exit removes the current participant from the world.
func (c *Virtual) exit() {
	c.mu.Lock()
	c.exitLocked()
	c.mu.Unlock()
}

// retire is exit for a Go-spawned participant whose fn returned: if the run
// queue is non-empty, its record r joins the idle workers and retire
// reports true. With nobody runnable the goroutine ends as before — an
// idle worker would only be released again at this very juncture.
func (c *Virtual) retire(r *parker) bool {
	c.mu.Lock()
	keep := c.runqHead < len(c.runq)
	c.exitLocked()
	if keep {
		c.idle = append(c.idle, r)
	}
	c.mu.Unlock()
	return keep
}

// exitLocked removes the current participant from the world. When the
// last one leaves, the run queue is empty, so the scheduler releases every
// idle worker. Caller holds c.mu.
func (c *Virtual) exitLocked() {
	if c.current == nil {
		c.mu.Unlock()
		panic("vclock: participant exit without holding the execution token")
	}
	c.participants--
	c.current = nil
	c.scheduleLocked()
}

// ---------------------------------------------------------------------------
// Primitive support (used by primitives.go)
// ---------------------------------------------------------------------------

// newParker re-arms the token holder's record for a primitive wait; the
// caller links it into the primitive's waiter queue, then calls park. A
// wait from a goroutine that is not a participant of an idle world panics
// here — before anything is registered and with held, the primitive's mutex
// the caller holds, released — so the primitive and the world stay usable.
func (c *Virtual) newParker(ctx context.Context, held *sync.Mutex) *parker {
	done := ctx.Done()
	c.mu.Lock()
	r := c.current
	if r == nil {
		c.mu.Unlock()
		held.Unlock()
		panic("vclock: wait on Virtual-clock primitive from an unregistered goroutine (use Go or Adopt)")
	}
	c.seq++
	r.arm(done, time.Time{}, c.seq)
	c.mu.Unlock()
	return r
}

// park releases the token on behalf of the current participant, whose
// record r (from newParker) is held by a primitive. The caller then awaits r.
func (c *Virtual) park(r *parker) {
	c.mu.Lock()
	if !r.claimed {
		// A signal from outside the scheduled world may land between the
		// primitive registering r and this park; r is then already claimed
		// and queued runnable, and must not enroll for cancellation.
		c.enroll(r)
	}
	c.current = nil
	c.scheduleLocked()
	c.mu.Unlock()
}

// wake makes a parked waiter runnable after its primitive signaled it; the
// waker keeps running, so this never blocks. It reports whether the signal
// claimed the waiter (false: already canceled in the meantime).
func (c *Virtual) wake(r *parker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.claimed {
		return false
	}
	r.claimed = true
	r.unenroll()
	c.runq = append(c.runq, r)
	c.scheduleLocked()
	return true
}

// nudge runs the scheduler, for a stall's watcher or a scope's cancel, if
// the token is free: at a stall its sweep recovers liveness; with the token
// held the next schedule pass sweeps, deterministically.
func (c *Virtual) nudge() {
	c.mu.Lock()
	if c.current == nil {
		c.scheduleLocked()
	}
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

// grantNextLocked pops the run queue's head and hands it the token.
// Caller holds c.mu and has checked the queue is non-empty.
func (c *Virtual) grantNextLocked() {
	r := c.runq[c.runqHead]
	c.runq[c.runqHead] = nil
	c.runqHead++
	if c.runqHead == len(c.runq) {
		c.runq = c.runq[:0]
		c.runqHead = 0
	}
	c.handLocked(r, TraceGrant)
}

// handLocked grants r the token as a kind decision; it ends a stall's watchers.
func (c *Virtual) handLocked(r *parker, kind TraceKind) {
	if c.resume != nil {
		close(c.resume)
		c.resume = nil
	}
	c.current = r
	c.recordLocked(kind, r.seq, "")
	r.g <- struct{}{}
}

// scheduleLocked hands the execution token to the next runnable
// participant; with none runnable it readmits any completed compute phase,
// sweeps canceled waiters, then advances modeled time to the earliest
// sleeper. Caller holds c.mu.
func (c *Virtual) scheduleLocked() {
	if c.current != nil {
		return
	}
	if c.runqHead < len(c.runq) {
		// Fast path: a runnable successor takes the token without the
		// scheduler touching the sleeper heap or the cancel groups at all —
		// the compute-readmit juncture and the cancellation sweep only
		// ever happen on an empty run queue, exactly as before the heap
		// refactor, so hoisting the grant changes no decision.
		c.grantNextLocked()
		return
	}
	if len(c.idle) > 0 {
		c.releaseIdleLocked()
	}
	if c.computing > 0 || len(c.computeDone) > 0 {
		// An off-token compute phase is pending. Readmission may only
		// happen here — the run queue is empty, so this juncture is reached
		// at a schedule-determined point — and only once *every* in-flight
		// body has finished, so the admitted set never depends on real
		// completion order. Until then the world holds still: no grant, no
		// cancellation sweep, and above all no time advance — Compute
		// rejoins at the exact virtual instant it left.
		if c.computing > 0 {
			return // the last finishing body re-runs the scheduler
		}
		for i := 1; i < len(c.computeDone); i++ {
			for j := i; j > 0 && c.computeDone[j].seq < c.computeDone[j-1].seq; j-- {
				c.computeDone[j], c.computeDone[j-1] = c.computeDone[j-1], c.computeDone[j]
			}
		}
		for _, r := range c.computeDone {
			c.recordLocked(TraceCompute, r.seq, "")
		}
		c.runq = append(c.runq, c.computeDone...)
		clear(c.computeDone)
		c.computeDone = c.computeDone[:0]
		c.grantNextLocked()
		return
	}
	// Before letting time move (or stalling), deliver pending
	// cancellations at the current instant, in registration order.
	c.sweepCanceledLocked()
	if c.runqHead < len(c.runq) {
		c.grantNextLocked()
		return
	}
	if len(c.sleepers) > 0 {
		s := c.sleepers.popMin()
		s.unenroll()
		if s.deadline.After(c.now) {
			c.now = s.deadline
		}
		s.claimed = true
		c.handLocked(s, TraceAdvance)
		return
	}
	if c.participants > 0 {
		// Everyone is parked and no modeled work is pending: the world can
		// only resume on an external signal (Adopt, a primitive fired from
		// outside, or a context cancellation).
		c.stalls++
		c.watchLocked()
	}
}

// watchLocked starts one watcher per listed group, each of which, at the
// sweep just run, has members or kids; the first Done to close nudges the
// sweep. A re-stall restarts the set: the sweep may have listed a scope
// whose Done is yet to close (a parent's cancel closes its own Done first).
func (c *Virtual) watchLocked() {
	if c.resume != nil {
		close(c.resume)
	}
	c.resume = make(chan struct{})
	for _, g := range c.groups {
		go func(done, resume <-chan struct{}) {
			select {
			case <-done:
				c.nudge()
			case <-resume:
			}
		}(g.done, c.resume)
	}
}

// releaseIdleLocked wakes every idle worker with no body, so its goroutine
// returns. It runs at the first empty-run-queue juncture after the workers
// were kept: a parked idle goroutine holds a shallow stack, and enough of
// them pull down the starting stack size the runtime picks for every new
// goroutine, so workers are kept only across a run of back-to-back grants.
// Caller holds c.mu.
func (c *Virtual) releaseIdleLocked() {
	for i, r := range c.idle {
		r.g <- struct{}{}
		c.idle[i] = nil
	}
	c.idle = c.idle[:0]
}

// sweepCanceledLocked claims every enrolled record — sleeper or parked
// waiter — whose context is already canceled, making them runnable (in seq
// order) at the current modeled time. It polls each listed cancel group's
// Done channel once, so every member of a group is judged by the same read;
// the common no-cancellation case reads one channel per distinct context
// that is not an uncanceled scope, and restructures nothing but the groups
// emptied since the last sweep. A closed group lists the scopes hanging
// under it, and this same loop reaches and polls each by its own Done. An
// enrolled record is never already claimed — every claim (popMin, wake,
// this sweep) unenrolls under the same lock and park never enrolls a
// claimed record — so the sweep tests the context alone. Caller holds c.mu.
func (c *Virtual) sweepCanceledLocked() {
	due := c.due
	for i := 0; i < len(c.groups); {
		g := c.groups[i]
		if g.members != nil || g.kids != nil {
			select {
			case <-g.done:
			default:
				i++
				continue
			}
		}
		for r := g.members; r != nil; {
			next := r.cnext
			if r.heapIdx >= 0 {
				c.sleepers.removeIdx(r.heapIdx)
			}
			r.cg, r.cprev, r.cnext = nil, nil, nil
			due = append(due, r)
			r = next
		}
		for g.kids != nil {
			c.listLocked(g.kids)
		}
		// Retire the group, empty or closed; the last one takes slot i.
		delete(c.groupOf, g.done)
		g.done, g.members, g.listed = nil, nil, false
		c.free = append(c.free, g)
		last := len(c.groups) - 1
		c.groups[i], c.groups[last] = c.groups[last], nil
		c.groups = c.groups[:last]
	}
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].seq < due[j-1].seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, r := range due {
		r.claimed = true
		r.canceled = true
		c.recordLocked(TraceCancel, r.seq, "")
		c.runq = append(c.runq, r)
	}
	clear(due)
	c.due = due[:0]
}
