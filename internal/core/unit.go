// Package core implements the pilot-abstraction — the paper's primary
// contribution — following the P* model [6]: a Pilot is a placeholder job
// that acquires resources from heterogeneous infrastructure; a ComputeUnit
// is a self-contained task; the Manager (Pilot-Manager in P*) owns the
// shared unit queue and performs *late binding* of units to pilots through
// a pluggable Scheduler. Data-units are integrated as first-class citizens
// via the DataService interface implemented by the Pilot-Data layer.
package core

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// UnitState is the compute-unit lifecycle of the P* model.
type UnitState int

// Compute-unit states. Units flow New → Pending → Scheduled → Staging →
// Running → {Done, Failed, Canceled}; a unit whose pilot dies mid-run may
// return to Pending (retry).
const (
	UnitNew UnitState = iota
	UnitPending
	UnitScheduled
	UnitStaging
	UnitRunning
	UnitDone
	UnitFailed
	UnitCanceled
)

// String implements fmt.Stringer.
func (s UnitState) String() string {
	switch s {
	case UnitNew:
		return "New"
	case UnitPending:
		return "Pending"
	case UnitScheduled:
		return "Scheduled"
	case UnitStaging:
		return "Staging"
	case UnitRunning:
		return "Running"
	case UnitDone:
		return "Done"
	case UnitFailed:
		return "Failed"
	case UnitCanceled:
		return "Canceled"
	default:
		return fmt.Sprintf("UnitState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s UnitState) Terminal() bool {
	return s == UnitDone || s == UnitFailed || s == UnitCanceled
}

// TaskContext is the execution environment handed to a unit's TaskFunc.
type TaskContext struct {
	// Unit is the unit being executed.
	Unit *ComputeUnit
	// Cores granted to this unit.
	Cores int
	// Site the unit runs at (for data-locality-aware application code).
	Site infra.Site
	// Alloc describes the hosting pilot's allocation.
	Alloc infra.Allocation
	// Data is the Pilot-Data service, or nil if the manager has none.
	Data DataService
	// Sleep blocks for a modeled duration, honoring cancellation — tasks
	// use it to model compute phases without binding to wall time.
	Sleep func(ctx context.Context, d time.Duration) bool
	// Compute runs a side-effect-free CPU closure as a parallel compute
	// phase: the task releases the executor's single-runner token, fn
	// executes with real parallelism alongside other tasks' compute
	// phases, and the task re-enters the schedule at the same virtual
	// instant — so results stay bit-reproducible while multi-core
	// hardware is actually used. fn must not read the clock,
	// sleep, draw from streams, touch the data service, or mutate shared
	// state (see DESIGN.md "Parallel compute phase"). Returns false,
	// without running fn, if ctx is already canceled.
	Compute func(ctx context.Context, fn func()) bool
	// Stream is the unit's randomness identity on the seeding spine (the
	// "unit"/<ordinal> child of the manager's stream). Task bodies draw
	// from it — never from ambient sources — so their stochastic behavior
	// is fixed by the experiment root regardless of which pilot the unit
	// lands on, and continues across retries.
	Stream *dist.Stream
}

// TaskFunc is the body of a compute unit. ctx is the hosting pilot's
// payload context: it ends when the pilot is lost (walltime, eviction,
// Kill), not when Run returns — work a body starts that must stop with
// the body needs a context of its own.
type TaskFunc func(ctx context.Context, tc TaskContext) error

// UnitDescription describes a compute unit (the P* compute-unit
// description, extended with data dependencies per Pilot-Data [66]).
type UnitDescription struct {
	// Name labels the unit.
	Name string
	// Cores is the number of cores the unit needs (default 1).
	Cores int
	// Run is the unit body.
	Run TaskFunc
	// InputData lists data-unit IDs staged to the execution site before the
	// unit starts.
	InputData []string
	// AffinitySite is an optional placement preference.
	AffinitySite infra.Site
	// MaxRetries is the unit's shared failure budget: the number of times
	// the control plane will re-dispatch it after a pilot-caused failure,
	// so a unit is dispatched at most MaxRetries+1 times in total
	// (MaxRetries=0 → exactly one attempt, =2 → at most three). The
	// budget is charged for every pilot-caused failure — a pilot lost
	// mid-execution and a pilot that dies before the unit is picked up
	// both consume one retry. Each retry re-enters the queue after an
	// exponential backoff with deterministic jitter (plan.Backoff). Task
	// body errors are never retried.
	MaxRetries int
}

// ComputeUnit is a handle to a submitted unit.
type ComputeUnit struct {
	id        string
	ord       uint64 // submission ordinal: the unit is Manager.units[ord-1] and planner ordinal ord
	desc      UnitDescription
	manager   *Manager
	stream    dist.Stream // "unit"/<ordinal> child of the manager's stream
	submitted time.Time

	// Guarded by manager.mu.
	state     UnitState
	pilot     *Pilot
	attempts  int
	err       error
	scheduled time.Time
	started   time.Time
	ended     time.Time
	done      *vclock.Event // made by the first Wait that parks; fired by finishUnit
}

// ID returns the manager-assigned unit id.
func (u *ComputeUnit) ID() string { return u.id }

// Description returns the unit description.
func (u *ComputeUnit) Description() UnitDescription { return u.desc }

// State returns the current state.
func (u *ComputeUnit) State() UnitState {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	return u.state
}

// Err returns the terminal error, if any.
func (u *ComputeUnit) Err() error {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	return u.err
}

// Pilot returns the pilot the unit is (or was last) bound to, or nil.
func (u *ComputeUnit) Pilot() *Pilot {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	return u.pilot
}

// Attempts returns the number of execution attempts.
func (u *ComputeUnit) Attempts() int {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	return u.attempts
}

// Wait blocks until the unit terminates or ctx is canceled. A terminal
// unit answers at once — with ctx.Err() if ctx is done — and parks nobody.
func (u *ComputeUnit) Wait(ctx context.Context) (UnitState, error) {
	m := u.manager
	m.mu.Lock()
	if u.state.Terminal() {
		state, err := u.state, u.err
		m.mu.Unlock()
		if ctx.Err() != nil {
			return state, ctx.Err()
		}
		return state, err
	}
	if u.done == nil {
		u.done = vclock.NewEvent(m.cfg.Clock)
	}
	done := u.done
	m.mu.Unlock()
	if done.Wait(ctx) {
		return u.State(), u.Err()
	}
	return u.State(), ctx.Err()
}

// EndTime returns the modeled termination time.
func (u *ComputeUnit) EndTime() time.Time {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	return u.ended
}

// WaitingTime is submission → binding: the late-binding queue delay.
func (u *ComputeUnit) WaitingTime() time.Duration {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	if u.scheduled.IsZero() {
		return 0
	}
	return u.scheduled.Sub(u.submitted)
}

// Runtime is execution start → end.
func (u *ComputeUnit) Runtime() time.Duration {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	if u.started.IsZero() || u.ended.IsZero() {
		return 0
	}
	return u.ended.Sub(u.started)
}

// TurnaroundTime is submission → end.
func (u *ComputeUnit) TurnaroundTime() time.Duration {
	u.manager.mu.Lock()
	defer u.manager.mu.Unlock()
	if u.ended.IsZero() {
		return 0
	}
	return u.ended.Sub(u.submitted)
}

// DataService is the contract between the pilot layer and Pilot-Data
// (package data implements it). It treats data as a first-class citizen of
// scheduling: units declare input/output data-units, schedulers query
// placement, and the runtime stages replicas with modeled transfer costs.
type DataService interface {
	// Locate returns the sites currently holding a replica of the data unit.
	Locate(id string) ([]infra.Site, bool)
	// Size returns the data unit's size in bytes.
	Size(id string) (int64, bool)
	// StageIn ensures a replica exists at the target site, paying the
	// modeled transfer cost.
	StageIn(ctx context.Context, id string, to infra.Site) error
	// Read returns the content of a data unit, reading from the named site
	// (paying a transfer if the site has no replica).
	Read(ctx context.Context, id string, at infra.Site) ([]byte, error)
	// Write creates or replaces a data unit at the given site.
	Write(ctx context.Context, id string, content []byte, at infra.Site) error
}
