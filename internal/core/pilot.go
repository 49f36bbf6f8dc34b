package core

import (
	"context"
	"fmt"
	"sync"
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
	id      string
	desc    PilotDescription
	manager *Manager
	stream  *dist.Stream  // "pilot"/<ordinal> child of the manager's stream
	faults  *infra.Faults // backend fault switchboard (immutable after submit; may be nil)

	mu        sync.Mutex
	state     PilotState
	job       saga.Job // the placeholder job handle (set after submission)
	site      infra.Site
	alloc     infra.Allocation
	freeCores int
	running   map[*ComputeUnit]struct{}
	unitsDone int
	err       error
	submitted time.Time
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Err returns the terminal error, if any.
func (p *Pilot) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Site returns the site of the granted allocation (set once Running).
func (p *Pilot) Site() infra.Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.site
}

// TotalCores returns the pilot's configured capacity.
func (p *Pilot) TotalCores() int { return p.desc.Cores }

// FreeCores returns the currently unreserved capacity.
func (p *Pilot) FreeCores() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeCores
}

// RunningUnits returns the number of units currently executing.
func (p *Pilot) RunningUnits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.running)
}

// QueuedUnits returns the number of units sitting in the agent's work
// queue, dispatched but not yet picked up.
func (p *Pilot) QueuedUnits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workQ)
}

// UnitsCompleted returns the number of units this pilot has finished.
func (p *Pilot) UnitsCompleted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p.mu.Lock()
	ran := !p.startedAt.IsZero()
	state, err := p.state, p.err
	p.mu.Unlock()
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
	p.mu.Lock()
	defer p.mu.Unlock()
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
// the work queue are stranded until drainWork routes them through
// FailurePreStart — both charged against their retry budgets. This is the
// chaos engine's pilot-crash fault.
func (p *Pilot) Kill() {
	p.mu.Lock()
	job := p.job
	p.mu.Unlock()
	if job != nil {
		job.Cancel()
	}
}

// pushWork queues a unit for the agent (called by the dispatcher; the
// unit's cores are already reserved, so the queue never overfills).
func (p *Pilot) pushWork(cu *ComputeUnit) {
	p.mu.Lock()
	p.workQ = append(p.workQ, cu)
	p.mu.Unlock()
	p.workN.Set()
}

// hasWork reports whether the work queue is non-empty.
func (p *Pilot) hasWork() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workQ) > 0
}

// popWork dequeues the next unit, or nil. The rest of the queue — a handful
// of units at most, the pilot's cores bound it — moves down over it, so the
// backing array keeps its capacity for the next pushWork and the vacated
// slot no longer holds a unit reachable.
func (p *Pilot) popWork() *ComputeUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.workQ) == 0 {
		return nil
	}
	cu := p.workQ[0]
	last := copy(p.workQ, p.workQ[1:])
	p.workQ[last] = nil
	p.workQ = p.workQ[:last]
	return cu
}

// drainWork empties the work queue (agent gone; the manager requeues).
func (p *Pilot) drainWork() []*ComputeUnit {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.workQ
	p.workQ = nil
	return out
}

// agentRun is the pilot agent: the payload of the placeholder job. It
// registers the allocation with the manager, then executes dispatched
// units until the pilot is stopped, canceled or hits walltime.
func (p *Pilot) agentRun(ctx context.Context, alloc infra.Allocation) error {
	p.manager.pilotStarted(p, alloc)
	clock := p.manager.cfg.Clock
	wg := vclock.NewGroup(clock)
	defer wg.Wait()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.stop.Fired() {
			return nil
		}
		if p.hasWork() {
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
			if cu := p.popWork(); cu != nil {
				cu := cu
				wg.Add(1)
				clock.Go(func() {
					defer wg.Done()
					p.manager.executeUnit(ctx, p, cu)
				})
			}
			continue
		}
		if !p.workN.Wait(ctx) {
			return ctx.Err()
		}
	}
}
