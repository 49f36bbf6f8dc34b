package vclock

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// This file implements the deterministic parallel compute phase: a way to
// run *pure* CPU closures (wordcount kernels, Hausdorff distances, frame
// reconstruction) with real hardware parallelism without giving up the
// Virtual executor's bit-reproducibility.
//
// The single-runner token serializes every clock read and scheduling
// decision — that is what makes same-seed runs identical — but it also
// serializes task bodies, so an exhibit dominated by real computation runs
// one-core no matter how many cores the modeled pilot has. Compute opens a
// parallel phase for the portions of a task body that are side-effect-free
// CPU work:
//
//   - the calling participant releases the token and runs fn on its own
//     goroutine, in parallel with whoever holds the token next and with
//     any other in-flight Compute bodies (the Go runtime schedules them
//     across up to GOMAXPROCS cores);
//   - while any Compute body is in flight the scheduler refuses to advance
//     modeled time, sweep cancellations, or stall — the world is pinned to
//     the instant the phase opened;
//   - when the run queue drains and every in-flight body has finished, the
//     callers re-enter the run queue sorted by their *spawn ordinal* (the
//     token-order of the Compute calls), never by real completion order.
//
// Those three rules make the phase invisible to the schedule: every Now()
// before, during (there is none — fn must not read the clock) and after
// the phase reads the same instant in every run, and the token handoff
// sequence after the join is a pure function of the seed.
//
// The purity contract for fn (specified in DESIGN.md "Parallel compute
// phase"): no clock reads, no modeled sleeps, no stream draws, no
// data-service calls, no primitive waits, and no mutation of state shared
// with other participants. fn gets real parallelism precisely because
// nobody is watching it. tools/seed-audit.sh lint-checks the inline
// `Compute(..., func() {...})` form; kernels reaching a compute phase
// another way — dataflow.Stage.Pure, streaming's PureHandler, a named
// function — are beyond the lint's sight and must honor the contract
// themselves (a violating sleep or wait deadlocks the pinned world; a
// violating draw silently breaks bit-reproducibility).

// Compute runs fn — a side-effect-free CPU closure — off the execution
// token, in parallel with other participants and other Compute bodies,
// and re-enters the cooperative schedule at the same virtual instant
// before returning. Join order across concurrent Compute calls is fixed
// by spawn ordinal (token order of the calls), not completion order, so
// downstream draw sequences are bit-identical run to run.
//
// If ctx is already canceled, fn does not run and Compute returns false.
// Once started, fn always runs to completion (pure CPU work is not
// interruptible); the return value is then true and the caller re-checks
// ctx if it wants prompt teardown.
func (c *Virtual) Compute(ctx context.Context, fn func()) bool {
	if ctx != nil && ctx.Err() != nil {
		return false
	}
	c.mu.Lock()
	r := c.current // captured now: fn returns off-token, under someone else's current
	if r == nil {
		c.mu.Unlock()
		panic("vclock: Compute on Virtual clock from an unregistered goroutine (use Go or Adopt)")
	}
	c.computeSeq++
	r.arm(nil, time.Time{}, c.computeSeq) // the rejoin is ordered and recorded by spawn ordinal
	c.computing++
	c.current = nil
	c.scheduleLocked()
	c.mu.Unlock()

	fn()

	c.mu.Lock()
	c.computing--
	c.computeDone = append(c.computeDone, r)
	if c.current == nil {
		// The token is free, so the run queue is empty: this was the last
		// (or only) straggler the scheduler was holding the world for.
		c.scheduleLocked()
	}
	c.mu.Unlock()
	<-r.g
	return true
}

// Computing reports how many Compute bodies are currently in flight
// (diagnostics; a world whose Stalls() is flat but whose Computing() is
// stuck non-zero has a hung — impure or non-terminating — compute body).
func (c *Virtual) Computing() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.computing
}

// Compute is c.Compute(ctx, fn), kept only because the frozen cmd/bench
// calls it in this form; delete with ROADMAP item 1.
func Compute(c Clock, ctx context.Context, fn func()) bool { return c.Compute(ctx, fn) }

// computeSlots bounds the number of ComputePool bodies executing at once
// to the real parallelism available, so a wide fan-out (one closure per
// map split, per trajectory pair, per record batch) degrades to a work
// queue instead of thousands of runnable goroutines. Virtual.Compute
// deliberately does not draw from this pool: its callers are scheduler
// participants (bounded by the workload's own concurrency), and a join
// closure like ComputePool.Wait must never hold a slot its own workers
// still need.
var computeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// ComputePool fans pure CPU closures out across up to GOMAXPROCS workers
// and joins them deterministically: Go starts a body immediately on a
// pool worker (off-token, so it overlaps both the caller's on-token work
// and other bodies), and Wait parks the caller — through Compute — until
// every body has finished, re-entering the schedule at the same virtual
// instant. Bodies obey the Compute purity contract;
// their results must only be observed after Wait returns.
//
// The zero value is not usable; create with NewComputePool. A pool is for
// one wave of work owned by one participant: Go must not be called
// concurrently with Wait.
type ComputePool struct {
	clock Clock
	wg    sync.WaitGroup
}

// NewComputePool creates a pool for the given clock.
func NewComputePool(c Clock) *ComputePool {
	return &ComputePool{clock: c}
}

// Go starts fn on a pool worker immediately. fn must be side-effect-free
// CPU work (the Compute purity contract); nothing may observe its results
// until Wait returns.
func (p *ComputePool) Go(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		computeSlots <- struct{}{}
		defer func() { <-computeSlots }()
		fn()
	}()
}

// Wait joins the pool: it blocks until every body started with Go has
// finished, releasing the execution token while it waits and rejoining at
// the same virtual instant. Reports false,
// without waiting, when ctx is already canceled — the bodies still run to
// completion in the background, so a canceled caller must not reuse or
// observe the pool afterwards.
func (p *ComputePool) Wait(ctx context.Context) bool {
	return p.clock.Compute(ctx, p.wg.Wait)
}
