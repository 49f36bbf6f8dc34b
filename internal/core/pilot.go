package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// PilotState is the pilot lifecycle of the P* model.
type PilotState int

// Pilot states: a pilot is Pending while its placeholder job sits in the
// backend's queue, Running once the agent has started on the allocation,
// and terminal afterwards.
const (
	PilotPending PilotState = iota
	PilotRunning
	PilotDone
	PilotFailed
	PilotCanceled
)

// String implements fmt.Stringer.
func (s PilotState) String() string {
	switch s {
	case PilotPending:
		return "Pending"
	case PilotRunning:
		return "Running"
	case PilotDone:
		return "Done"
	case PilotFailed:
		return "Failed"
	case PilotCanceled:
		return "Canceled"
	default:
		return fmt.Sprintf("PilotState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s PilotState) Terminal() bool {
	return s == PilotDone || s == PilotFailed || s == PilotCanceled
}

// PilotDescription describes the placeholder job to submit (the P* pilot
// description).
type PilotDescription struct {
	// Name labels the pilot.
	Name string
	// Resource is the saga registry URL of the target infrastructure,
	// e.g. "hpc://stampede" or "cloud://ec2".
	Resource string
	// Cores is the size of the placeholder.
	Cores int
	// Walltime bounds the pilot's lifetime on the resource.
	Walltime time.Duration
	// Attributes carries backend-specific hints (queue, vm_type, ...).
	Attributes map[string]string
	// UnitPickupDelay models the agent's poll interval: the modeled time
	// between a unit arriving in the agent's work queue and the agent
	// picking it up for execution. Zero (the default) preserves immediate
	// pickup. A non-zero delay means a pilot that dies at the wrong moment
	// strands queued units, exercising the FailurePreStart retry path that
	// instantaneous pickup makes unreachable.
	UnitPickupDelay time.Duration
}

// Pilot is a handle to a submitted pilot.
type Pilot struct {
	id        string
	desc      PilotDescription
	manager   *Manager
	stream    *dist.Stream  // "pilot"/<ordinal> child of the manager's stream
	faults    *infra.Faults // backend fault switchboard (immutable after submit; may be nil)
	site      infra.Site    // the target resource's site
	submitted time.Time

	// freeCores is written only under manager.mu and read without it, so a
	// Scheduler, which runs under manager.mu, can call FreeCores.
	freeCores atomic.Int64

	// Guarded by manager.mu.
	state     PilotState
	job       saga.Job // the placeholder job handle (set after submission)
	alloc     infra.Allocation
	running   map[*ComputeUnit]struct{}
	unitsDone int
	err       error
	startedAt time.Time
	ended     time.Time
	workQ     []*ComputeUnit

	workN   *vclock.Notifier
	stop    *vclock.Event
	started *vclock.Event
	done    *vclock.Event
}

// ID returns the manager-assigned pilot id.
func (p *Pilot) ID() string { return p.id }

// Stream returns the pilot's randomness identity on the seeding spine:
// the "pilot"/<ordinal> child of the manager's stream, fixed at
// submission. Agent-side draws (placement jitter, sampling inside
// pilot-level services) must come from here so that submitting an
// additional pilot never shifts an existing pilot's sequence.
func (p *Pilot) Stream() *dist.Stream { return p.stream }

// State returns the current state.
func (p *Pilot) State() PilotState {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	return p.state
}

// Err returns the terminal error, if any.
func (p *Pilot) Err() error {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	return p.err
}

// Site returns the target resource's site, set at submission.
func (p *Pilot) Site() infra.Site { return p.site }

// TotalCores returns the pilot's configured capacity.
func (p *Pilot) TotalCores() int { return p.desc.Cores }

// FreeCores returns the currently unreserved capacity.
func (p *Pilot) FreeCores() int { return int(p.freeCores.Load()) }

// RunningUnits returns the number of units currently executing.
func (p *Pilot) RunningUnits() int {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	return len(p.running)
}

// QueuedUnits returns the number of units sitting in the agent's work
// queue, dispatched but not yet picked up.
func (p *Pilot) QueuedUnits() int {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	return len(p.workQ)
}

// UnitsCompleted returns the number of units this pilot has finished.
func (p *Pilot) UnitsCompleted() int {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	return p.unitsDone
}

// Wait blocks until the pilot terminates or ctx is canceled.
func (p *Pilot) Wait(ctx context.Context) (PilotState, error) {
	if p.done.Wait(ctx) {
		return p.State(), p.Err()
	}
	return p.State(), ctx.Err()
}

// WaitRunning blocks until the pilot's agent has started (now or in the
// past) or the pilot terminated without ever running, or ctx is canceled.
func (p *Pilot) WaitRunning(ctx context.Context) error {
	if !p.started.Wait(ctx) {
		return ctx.Err()
	}
	p.manager.mu.Lock()
	ran := !p.startedAt.IsZero()
	state, err := p.state, p.err
	p.manager.mu.Unlock()
	if ran {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: pilot %s %v before start: %w", p.id, state, err)
	}
	return fmt.Errorf("core: pilot %s %v before start", p.id, state)
}

// StartupTime returns submission → agent start (the pilot startup overhead
// measured by experiment E2); zero until Running.
func (p *Pilot) StartupTime() time.Duration {
	p.manager.mu.Lock()
	defer p.manager.mu.Unlock()
	if p.startedAt.IsZero() {
		return 0
	}
	return p.startedAt.Sub(p.submitted)
}

// Shutdown stops the agent: normal teardown, the pilot ends in Done.
func (p *Pilot) Shutdown() {
	p.stop.Fire()
	p.workN.Set()
}

// Kill hard-crashes the pilot by canceling its placeholder job at the
// backend. Unlike Shutdown's graceful drain, the agent loses its context
// mid-flight: running units fail with FailureExecution and units still in
// the work queue are stranded until pilotEnded routes them through
// FailurePreStart — both charged against their retry budgets. This is the
// chaos engine's pilot-crash fault.
func (p *Pilot) Kill() {
	p.manager.mu.Lock()
	job := p.job
	p.manager.mu.Unlock()
	if job != nil {
		job.Cancel()
	}
}

// pushWork queues a unit for the agent (called by the dispatcher under
// manager.mu; the unit's cores are already reserved, so the queue never
// overfills).
func (p *Pilot) pushWork(cu *ComputeUnit) {
	p.workQ = append(p.workQ, cu)
	p.workN.Set()
}

// popWork dequeues the next unit, or nil (caller holds manager.mu). The rest
// of the queue — a handful of units at most, the pilot's cores bound it —
// moves down over it, so the backing array keeps its capacity for the next
// pushWork and the vacated slot no longer holds a unit reachable.
func (p *Pilot) popWork() *ComputeUnit {
	if len(p.workQ) == 0 {
		return nil
	}
	cu := p.workQ[0]
	last := copy(p.workQ, p.workQ[1:])
	p.workQ[last] = nil
	p.workQ = p.workQ[:last]
	return cu
}

// drop removes cu from p's running set, restoring its cores, and from p's
// work queue (caller holds manager.mu).
func (p *Pilot) drop(cu *ComputeUnit) {
	if _, ok := p.running[cu]; ok {
		delete(p.running, cu)
		p.freeCores.Add(int64(cu.desc.Cores))
	}
	if i := slices.Index(p.workQ, cu); i >= 0 {
		p.workQ = slices.Delete(p.workQ, i, i+1)
	}
}

// agentRun is the pilot agent: the payload of the placeholder job. It
// registers the allocation with the manager, then executes dispatched
// units until the pilot is stopped, canceled or hits walltime.
func (p *Pilot) agentRun(ctx context.Context, alloc infra.Allocation) error {
	m := p.manager
	m.pilotStarted(p, alloc)
	clock := m.cfg.Clock
	wg := vclock.NewGroup(clock)
	defer wg.Wait()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.stop.Fired() {
			return nil
		}
		if p.QueuedUnits() > 0 {
			// The pickup delay runs while the unit still sits in the work
			// queue, so an agent death during it strands the unit on the
			// FailurePreStart path rather than the mid-execution one.
			if d := p.desc.UnitPickupDelay; d > 0 {
				if !clock.Sleep(ctx, d) {
					return ctx.Err()
				}
				if p.stop.Fired() {
					return nil
				}
			}
			m.mu.Lock()
			cu := p.popWork()
			m.mu.Unlock()
			if cu != nil {
				wg.Add(1)
				clock.Go(func() {
					defer wg.Done()
					m.executeUnit(ctx, p, cu)
				})
			}
			continue
		}
		if !p.workN.Wait(ctx) {
			return ctx.Err()
		}
	}
}
