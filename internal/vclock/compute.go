package vclock

import (
	"context"
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
// nobody is watching it. make seed-audit rules 4 and 8 check each func
// handed to a Compute and every function it calls statically; a kernel
// reached through a func value or an interface — dataflow.Stage.Pure's
// Run, streaming's PureHandler — is beyond the lint's sight and must
// honor the contract itself (a violating sleep or wait deadlocks the
// pinned world; a violating draw silently breaks bit-reproducibility).

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

// Compute is c.Compute(ctx, fn), kept only because the frozen cmd/bench
// calls it in this form; delete with ROADMAP item 1.
func Compute(c Clock, ctx context.Context, fn func()) bool { return c.Compute(ctx, fn) }
