// Package saga is gopilot's standardized access layer to heterogeneous
// infrastructure, modeled on SAGA [70]: one Service interface, one job
// description, one job state model — and an adaptor per backend (local
// fork, HPC batch, HTC pool, IaaS cloud, YARN). The pilot layer (package
// core) submits *pilots* as SAGA jobs; applications may also submit tasks
// directly, which is the "no pilot" baseline in the late-binding
// experiments (E9).
package saga

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// JobState is the unified job state model (paper Fig. 4's P* lifecycle is a
// refinement of this).
type JobState int

// Unified job states.
const (
	New JobState = iota
	Pending
	Running
	Done
	Failed
	Canceled
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case New:
		return "New"
	case Pending:
		return "Pending"
	case Running:
		return "Running"
	case Done:
		return "Done"
	case Failed:
		return "Failed"
	case Canceled:
		return "Canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Description is a backend-independent job description (the SAGA job
// description, adapted: the "executable" is a Go payload).
type Description struct {
	// Name labels the job.
	Name string
	// TotalCores requested across the whole job.
	TotalCores int
	// Walltime limits the run; zero means backend default/unlimited.
	Walltime time.Duration
	// Payload is the code to run on the granted allocation.
	Payload infra.Payload
	// Attributes carries backend-specific hints (queue name, VM type...).
	Attributes map[string]string
}

// Job is a handle to a submitted job, independent of backend.
type Job interface {
	// ID returns a backend-scoped identifier.
	ID() string
	// State returns the current unified state.
	State() JobState
	// Err returns the terminal error, if any.
	Err() error
	// Wait blocks until terminal state or ctx cancellation.
	Wait(ctx context.Context) (JobState, error)
	// Cancel requests cancellation.
	Cancel()
	// SubmitTime returns the modeled submission time.
	SubmitTime() time.Time
	// StartTime returns the modeled start time (zero until Running).
	StartTime() time.Time
	// EndTime returns the modeled end time (zero until terminal).
	EndTime() time.Time
}

// Service submits jobs to one backend at one site (the adaptor pattern,
// paper §IV.B).
type Service interface {
	// URL identifies the service, e.g. "hpc://stampede".
	URL() string
	// Site returns the site identity for data-affinity decisions.
	Site() infra.Site
	// TotalCores returns the backend capacity in cores (0 if unbounded).
	TotalCores() int
	// Submit submits a job.
	Submit(d Description) (Job, error)
	// Close releases the service.
	Close() error
}

// baseJob provides the shared state machine for adaptor jobs.
type baseJob struct {
	id string

	mu        sync.Mutex
	state     JobState
	err       error
	submitted time.Time
	started   time.Time
	ended     time.Time
	cancelFn  func()

	done *vclock.Event
}

func newBaseJob(id string, submitted time.Time, clock vclock.Clock) *baseJob {
	return &baseJob{id: id, state: Pending, submitted: submitted, done: vclock.NewEvent(clock)}
}

func (j *baseJob) ID() string { return j.id }

func (j *baseJob) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *baseJob) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *baseJob) Wait(ctx context.Context) (JobState, error) {
	if j.done.Wait(ctx) {
		return j.State(), j.Err()
	}
	return j.State(), ctx.Err()
}

func (j *baseJob) Cancel() {
	j.mu.Lock()
	fn := j.cancelFn
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (j *baseJob) SubmitTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted
}

func (j *baseJob) StartTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

func (j *baseJob) EndTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ended
}

// markRunning transitions to Running at modeled time t (idempotent).
func (j *baseJob) markRunning(t time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Pending || j.state == New {
		j.state = Running
		j.started = t
	}
}

// finish transitions to a terminal state at modeled time t (idempotent).
func (j *baseJob) finish(s JobState, err error, t time.Time) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.err = err
	j.ended = t
	j.mu.Unlock()
	j.done.Fire()
}

// setCancel installs the cancellation hook.
func (j *baseJob) setCancel(fn func()) {
	j.mu.Lock()
	j.cancelFn = fn
	j.mu.Unlock()
}

// finishPayload finalizes the job from a payload run's (context error,
// payload error) pair through infra.ClassifyOutcome — the one completion
// rule every adaptor shares, so no backend carries its own dispatch
// special-casing for how runs terminate.
func (j *baseJob) finishPayload(ctxErr, payloadErr error, t time.Time) {
	switch infra.ClassifyOutcome(ctxErr, payloadErr) {
	case infra.OutcomeCanceled:
		j.finish(Canceled, ctxErr, t)
	case infra.OutcomeFailed:
		j.finish(Failed, payloadErr, t)
	default:
		j.finish(Done, nil, t)
	}
}

// armWalltime starts a clock-aware watchdog that calls expire once
// walltime elapses; the returned disarm func stops it early. wg, when
// non-nil, tracks the watchdog for Close-time draining. Shared by the
// adaptors whose backends don't enforce walltime themselves.
func armWalltime(clock vclock.Clock, parent context.Context, walltime time.Duration, expire func(), wg *vclock.Group) (disarm func()) {
	wctx, wcancel := context.WithCancel(parent)
	if wg != nil {
		wg.Add(1)
	}
	clock.Go(func() {
		if wg != nil {
			defer wg.Done()
		}
		if clock.Sleep(wctx, walltime) {
			expire()
		}
	})
	return wcancel
}
