// Package saga is gopilot's standardized access layer to heterogeneous
// infrastructure, modeled on SAGA [70]: one Service interface, one job
// description and one job state machine, JobRecord, which every backend's
// jobs embed. The backends implement Service themselves — hpc.Cluster,
// htc.Pool, cloud.Provider and yarn.Cluster — so this package imports none
// of them; it holds only the in-process fork backend (LocalService) and
// the URL Registry. The pilot layer (package core) submits *pilots* as SAGA
// jobs; applications may also submit tasks directly, which is the "no
// pilot" baseline in the late-binding experiments (E9).
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

// Service submits jobs to one backend at one site (paper §IV.B). Each
// backend implements it itself.
type Service interface {
	// URL identifies the service, e.g. "hpc://stampede".
	URL() string
	// Site returns the site identity for data-affinity decisions.
	Site() infra.Site
	// Submit submits a job.
	Submit(d Description) (Job, error)
	// Close shuts the service down: it refuses new jobs, and ends or
	// waits out the ones it holds.
	Close() error
}

// JobRecord is the one job state machine. Every backend's job embeds it
// (or is it), so what Submit returns is the saga.Job itself, not a mirror
// of a native job. The mutable fields — state, error, start and end — are
// guarded by the owning backend's one mutex, which the record locks itself:
// a backend never calls a record method while holding that mutex. The id,
// submission instant, cancel hook and done event are fixed at construction.
type JobRecord struct {
	id        string
	submitted time.Time
	cancel    func()
	clock     vclock.Clock
	done      *vclock.Event
	mu        *sync.Mutex

	state          JobState
	err            error
	started, ended time.Time
}

// NewJobRecord returns a job submitted now, Pending, whose mutable fields
// mu guards; Cancel calls cancel.
func NewJobRecord(id string, mu *sync.Mutex, clock vclock.Clock, cancel func()) *JobRecord {
	return &JobRecord{id: id, submitted: clock.Now(), cancel: cancel, clock: clock,
		done: vclock.NewEvent(clock), mu: mu, state: Pending}
}

// ID implements Job.
func (j *JobRecord) ID() string { return j.id }

// State implements Job.
func (j *JobRecord) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err implements Job.
func (j *JobRecord) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Wait implements Job.
func (j *JobRecord) Wait(ctx context.Context) (JobState, error) {
	if j.done.Wait(ctx) {
		return j.State(), j.Err()
	}
	return j.State(), ctx.Err()
}

// Cancel implements Job.
func (j *JobRecord) Cancel() { j.cancel() }

// SubmitTime implements Job.
func (j *JobRecord) SubmitTime() time.Time { return j.submitted }

// StartTime implements Job.
func (j *JobRecord) StartTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// EndTime implements Job.
func (j *JobRecord) EndTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ended
}

// Start moves a pending job to Running now.
func (j *JobRecord) Start() {
	now := j.clock.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Pending {
		j.state, j.started = Running, now
	}
}

// Finish moves the job to terminal state s now and wakes its waiters; a job
// already terminal keeps its first ending.
func (j *JobRecord) Finish(s JobState, err error) {
	now := j.clock.Now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state, j.err, j.ended = s, err, now
	j.mu.Unlock()
	j.done.Fire()
}

// FinishPayload finishes the job from a run's (context error, payload
// error) pair through infra.ClassifyOutcome — the one completion rule every
// backend shares, for a payload that ran and for resources that never came.
func (j *JobRecord) FinishPayload(ctxErr, payloadErr error) {
	switch infra.ClassifyOutcome(ctxErr, payloadErr) {
	case infra.OutcomeCanceled:
		j.Finish(Canceled, ctxErr)
	case infra.OutcomeFailed:
		j.Finish(Failed, payloadErr)
	default:
		j.Finish(Done, nil)
	}
}
