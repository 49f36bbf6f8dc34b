package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/plan"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Scheduler decides which pilot a pending unit binds to. Candidates are
// running pilots with enough free cores; returning nil — or a pilot that
// is not one of the candidates — defers the unit. The candidates slice is
// the manager's scratch, valid only for the duration of the call.
// SelectPilot runs under the manager lock, so it may call only the
// lock-free accessors — Pilot.{ID, TotalCores, Site, FreeCores, Stream}
// and ComputeUnit.{ID, Description}; any other accessor deadlocks.
// Implementations live in package scheduler; the manager defaults to
// first-fit FIFO. The manager wires the policy into the control plane's
// TickPlanner (package plan), which owns the queue and retry state around
// this choice.
type Scheduler interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// SelectPilot picks a pilot for the unit from candidates (never empty).
	SelectPilot(cu *ComputeUnit, candidates []*Pilot, data DataService) *Pilot
}

// firstFit is the default scheduler: bind to the first candidate, which —
// given submit-order iteration — yields FIFO with opportunistic backfill.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) SelectPilot(cu *ComputeUnit, candidates []*Pilot, _ DataService) *Pilot {
	return candidates[0]
}

// Config configures a Manager.
type Config struct {
	// Registry resolves pilot resource URLs to saga services.
	Registry *saga.Registry
	// Clock supplies virtual time; defaults to a private vclock.Virtual.
	Clock vclock.Clock
	// Scheduler is the late-binding policy; defaults to first-fit FIFO.
	Scheduler Scheduler
	// Data is the Pilot-Data service; nil disables data staging.
	Data DataService
	// Stream is the manager's slot on the experiment's seeding spine.
	// Every pilot and unit receives a labeled child ("pilot"/<ordinal>,
	// "unit"/<ordinal>) derived from it, so draws made by one component
	// never shift another's — and a unit keeps the same stream across
	// retries and regardless of which pilot it lands on. The planner's
	// retry jitter lives in its own "retry"/<ordinal> subtree. Defaults to
	// dist.Unseeded("manager"); experiments should pass a named child of
	// their own root instead.
	Stream *dist.Stream
	// OnUnitChange, if set, observes every unit state transition. It runs
	// under the manager lock, so it may call only the lock-free accessors —
	// Pilot.{ID, TotalCores, Site, FreeCores, Stream} and
	// ComputeUnit.{ID, Description}; any other accessor deadlocks. Only
	// tests set it today; ROADMAP item 3(i) folds it into the telemetry
	// registry.
	OnUnitChange func(cu *ComputeUnit, state UnitState)
	// ReconcileEvery is the drift-reconciliation period in virtual time:
	// desired unit/pilot state is compared against agent state and
	// divergences are corrected. Zero means the 30s default; negative
	// disables the reconciler.
	ReconcileEvery time.Duration
}

// DefaultReconcileEvery is the reconciler period used when
// Config.ReconcileEvery is zero.
const DefaultReconcileEvery = 30 * time.Second

// Manager is the Pilot-Manager of the P* model: it owns pilots and the
// unit lifecycle, and corresponds to the Pilot-API's
// PilotComputeService/ComputeDataService pair. Placement itself is
// delegated: a plan.Planner owns the pending queue, retry budget/backoff
// and per-backend watermarks, and the manager's dispatch loop just asks
// it for decisions and executes them.
type Manager struct {
	cfg Config

	pilotRoot *dist.Stream // parent of per-pilot streams ("pilot"/<ordinal>)
	unitRoot  *dist.Stream // parent of per-unit streams ("unit"/<ordinal>)

	// mu guards the manager's own state and every mutable Pilot and
	// ComputeUnit field (Pilot.freeCores is written under it, read without).
	mu          sync.Mutex
	planner     *plan.Planner
	exec        plannerExec // the planner's executor, reused across ticks
	recon       *plan.Reconciler
	pilots      []*Pilot
	units       []*ComputeUnit // every unit, in ordinal order: a plan.UnitSpec's is units[Ordinal-1]
	live        []*ComputeUnit // non-terminal units, compacted by ReconcileOnce
	pilotByID   map[string]*Pilot
	nextPilotID int
	activeUnits int
	idle        *vclock.Event
	nextWake    time.Time // earliest scheduled dispatch self-wake
	closed      bool

	// ReconcileOnce's snapshots, reused from one scan to the next (under mu).
	reconUnits  []plan.UnitStatus
	reconPilots []plan.PilotStatus

	// What every TaskContext hands its task, made once: a method value
	// allocates where it is taken.
	sleep   func(ctx context.Context, d time.Duration) bool
	compute func(ctx context.Context, fn func()) bool

	kick      *vclock.Notifier
	reconKick *vclock.Notifier
	ctx       context.Context
	stop      context.CancelFunc
	wg        *vclock.Group
}

// ErrManagerClosed is returned by submissions after Close.
var ErrManagerClosed = errors.New("core: manager closed")

// NewManager creates a Manager and starts its dispatch and reconcile
// loops.
func NewManager(cfg Config) *Manager {
	if cfg.Registry == nil {
		cfg.Registry = saga.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(vclock.Epoch)
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = firstFit{}
	}
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("manager")
	}
	if cfg.ReconcileEvery == 0 {
		cfg.ReconcileEvery = DefaultReconcileEvery
	}
	m := &Manager{
		cfg:       cfg,
		pilotRoot: cfg.Stream.Named("pilot"),
		unitRoot:  cfg.Stream.Named("unit"),
		pilotByID: make(map[string]*Pilot),
		recon:     plan.NewReconciler(),
		idle:      vclock.NewEvent(cfg.Clock),
		kick:      vclock.NewNotifier(cfg.Clock),
		reconKick: vclock.NewNotifier(cfg.Clock),
		wg:        vclock.NewGroup(cfg.Clock),
		sleep:     cfg.Clock.Sleep,
		compute:   cfg.Clock.Compute,
	}
	m.exec.m = m
	m.planner = plan.New(plan.Config{
		Stream: cfg.Stream,
		// The policy adapter hands the pluggable Scheduler the live objects
		// behind the candidates plannerExec just offered. It runs inside
		// Plan, under m.mu, straight after that Candidates call.
		Policy: func(u plan.UnitSpec, _ []plan.Candidate) string {
			p := m.cfg.Scheduler.SelectPilot(m.units[u.Ordinal-1], m.exec.pilots, m.cfg.Data)
			if p == nil {
				return ""
			}
			return p.id
		},
	})
	m.idle.Fire() // no active units yet: idle
	m.ctx, m.stop = context.WithCancel(context.Background())
	m.wg.Add(1)
	cfg.Clock.Go(m.dispatchLoop)
	if cfg.ReconcileEvery > 0 {
		m.wg.Add(1)
		cfg.Clock.Go(m.reconcileLoop)
	}
	return m
}

// Clock returns the manager's clock (tasks and frameworks share it).
func (m *Manager) Clock() vclock.Clock { return m.cfg.Clock }

// Data returns the configured data service (may be nil).
func (m *Manager) Data() DataService { return m.cfg.Data }

// Stream returns the manager's randomness root on the seeding spine.
// Frameworks running on the manager (apps, processors) derive their own
// labeled children from it when not handed a stream explicitly.
func (m *Manager) Stream() *dist.Stream { return m.cfg.Stream }

// Watermarks returns the planner's per-backend dispatch watermarks.
func (m *Manager) Watermarks() map[string]plan.Watermark {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planner.Watermarks()
}

// SubmitPilot submits a placeholder job to the resource named in the
// description and returns immediately with a Pending pilot.
func (m *Manager) SubmitPilot(d PilotDescription) (*Pilot, error) {
	if d.Cores <= 0 {
		d.Cores = 1
	}
	svc, err := m.cfg.Registry.Lookup(d.Resource)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	m.nextPilotID++
	p := &Pilot{
		id:        fmt.Sprintf("pilot-%d", m.nextPilotID),
		desc:      d,
		manager:   m,
		stream:    *m.pilotRoot.SplitLabel(uint64(m.nextPilotID)),
		site:      svc.Site(),
		state:     PilotPending,
		running:   make(map[*ComputeUnit]struct{}),
		submitted: m.cfg.Clock.Now(),
		workN:     vclock.NewNotifier(m.cfg.Clock),
		stop:      vclock.NewEvent(m.cfg.Clock),
		started:   vclock.NewEvent(m.cfg.Clock),
		done:      vclock.NewEvent(m.cfg.Clock),
	}
	// A backend outage must empty the candidate set for pilots already
	// running there, so the pilot caches its service's fault switchboard
	// when the service exposes one.
	if fp, ok := svc.(interface{ Faults() *infra.Faults }); ok {
		p.faults = fp.Faults()
	}
	m.pilots = append(m.pilots, p)
	m.pilotByID[p.id] = p
	m.mu.Unlock()

	job, err := svc.Submit(saga.Description{
		Name:       d.Name,
		TotalCores: d.Cores,
		Walltime:   d.Walltime,
		Payload:    p.agentRun,
		Attributes: d.Attributes,
	})
	m.mu.Lock()
	if err != nil {
		for i, q := range m.pilots {
			if q == p {
				m.pilots = append(m.pilots[:i], m.pilots[i+1:]...)
				break
			}
		}
		delete(m.pilotByID, p.id)
		m.mu.Unlock()
		return nil, fmt.Errorf("core: pilot submission to %s failed: %w", d.Resource, err)
	}
	p.job = job
	m.mu.Unlock()
	m.reconKick.Set()
	m.wg.Add(1)
	m.cfg.Clock.Go(func() {
		defer m.wg.Done()
		job.Wait(context.Background())
		m.pilotEnded(p, job)
	})
	return p, nil
}

var errNilRun = errors.New("core: unit description has nil Run")

// SubmitUnit adds a unit to the planner's queue for late binding.
func (m *Manager) SubmitUnit(d UnitDescription) (*ComputeUnit, error) {
	if d.Run == nil {
		return nil, errNilRun
	}
	u := new(ComputeUnit)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	m.admitLocked(u, d, m.cfg.Clock.Now())
	m.mu.Unlock()
	m.reconKick.Set()
	m.wake()
	return u, nil
}

// SubmitUnits submits a batch of units in order, in one critical section:
// the batch's units are one allocation, the unit table and the planner grow
// once for all of them, and the dispatcher is woken once. If a description
// has a nil Run, the units before it are admitted and returned with the
// error; it and those after it are not, and take no ordinal.
func (m *Manager) SubmitUnits(ds []UnitDescription) ([]*ComputeUnit, error) {
	var err error
	n := slices.IndexFunc(ds, func(d UnitDescription) bool { return d.Run == nil })
	if n < 0 {
		n = len(ds)
	} else {
		err = errNilRun
	}
	out := make([]*ComputeUnit, n)
	if n == 0 {
		return out, err
	}
	slab := make([]ComputeUnit, n)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return out[:0], ErrManagerClosed
	}
	now := m.cfg.Clock.Now()
	m.units = slices.Grow(m.units, n)
	m.live = slices.Grow(m.live, n)
	m.planner.Grow(n)
	for i := range out {
		out[i] = &slab[i]
		m.admitLocked(out[i], ds[i], now)
	}
	m.mu.Unlock()
	m.reconKick.Set()
	m.wake()
	return out, err
}

// admitLocked makes u the next unit and queues it for late binding (m.mu
// must be held). u is a zero ComputeUnit, fresh from new or a batch's
// slice, so admission writes only the fields it sets: a composite literal
// copied over u would zero a temporary and move it under the GC's bulk
// write barrier. Its done event is made by the first Wait that parks, if
// any does.
func (m *Manager) admitLocked(u *ComputeUnit, d UnitDescription, now time.Time) {
	if d.Cores <= 0 {
		d.Cores = 1
	}
	u.ord = uint64(len(m.units)) + 1
	var id [24]byte // "unit-" and the digits, built on the stack: one allocation, not two
	u.id = string(strconv.AppendUint(append(id[:0], "unit-"...), u.ord, 10))
	u.desc = d
	u.manager = m
	u.stream = *m.unitRoot.SplitLabel(u.ord)
	u.state = UnitPending
	u.submitted = now
	m.units = append(m.units, u)
	m.live = append(m.live, u)
	m.planner.Admit(plan.UnitSpec{
		ID:         u.id,
		Ordinal:    u.ord,
		Cores:      d.Cores,
		MaxRetries: d.MaxRetries,
	})
	if m.activeUnits == 0 {
		m.idle = vclock.NewEvent(m.cfg.Clock)
	}
	m.activeUnits++
	m.notify(u, UnitPending)
}

// unitNamed returns the unit whose ID is id (m.mu must be held): admitLocked
// names a unit "unit-<ordinal>", and the ordinal indexes m.units.
func (m *Manager) unitNamed(id string) *ComputeUnit {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "unit-"))
	if err != nil || n < 1 || n > len(m.units) {
		panic("core: no unit " + id)
	}
	return m.units[n-1]
}

// Pilots returns a snapshot of all pilots.
func (m *Manager) Pilots() []*Pilot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Pilot(nil), m.pilots...)
}

// Units returns a snapshot of all units ever submitted.
func (m *Manager) Units() []*ComputeUnit {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*ComputeUnit(nil), m.units...)
}

// QueueDepth returns the number of units awaiting binding (including
// units parked in retry backoff). It reads a counter, whatever the depth.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planner.PendingLen()
}

// WaitAll blocks until every submitted unit is terminal, or ctx is done.
func (m *Manager) WaitAll(ctx context.Context) error {
	for {
		m.mu.Lock()
		if m.activeUnits == 0 {
			m.mu.Unlock()
			return nil
		}
		ev := m.idle
		m.mu.Unlock()
		if !ev.Wait(ctx) {
			return ctx.Err()
		}
	}
}

// Close cancels all pilots and pending units and stops the dispatch and
// reconcile loops.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, u := range m.planner.DrainPending() {
		m.finishUnit(m.units[u.Ordinal-1], UnitCanceled, ErrManagerClosed)
	}
	pilots := append([]*Pilot(nil), m.pilots...)
	m.mu.Unlock()
	for _, p := range pilots {
		p.Shutdown()
	}
	m.stop()
	m.wg.Wait()
}

// UnitMetrics summarizes waiting/runtime/turnaround over all Done units, in
// seconds — the raw material of the paper's performance tables.
func (m *Manager) UnitMetrics() (waiting, runtime, turnaround metrics.Summary) {
	m.mu.Lock()
	units := append([]*ComputeUnit(nil), m.units...)
	m.mu.Unlock()
	var w, r, t []float64
	for _, u := range units {
		if u.State() != UnitDone {
			continue
		}
		w = append(w, u.WaitingTime().Seconds())
		r = append(r, u.Runtime().Seconds())
		t = append(t, u.TurnaroundTime().Seconds())
	}
	return metrics.Summarize(w), metrics.Summarize(r), metrics.Summarize(t)
}

// ---------------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------------

func (m *Manager) wake() { m.kick.Set() }

// Kick nudges the dispatch loop to run a late-binding pass now. The chaos
// engine calls it when an injected backend outage clears: recovery alone
// produces no dispatch-visible event, so without a kick units would wait
// for the next unrelated wake-up.
func (m *Manager) Kick() { m.wake() }

func (m *Manager) notify(u *ComputeUnit, s UnitState) {
	if m.cfg.OnUnitChange != nil {
		m.cfg.OnUnitChange(u, s)
	}
}

func (m *Manager) dispatchLoop() {
	defer m.wg.Done()
	for m.kick.Wait(m.ctx) {
		m.dispatchOnce()
	}
}

// dispatchOnce performs one late-binding pass: it takes the tick's capacity
// snapshot, asks the planner for this instant's decisions and executes them
// through the plannerExec callbacks. If the planner is holding units in
// retry backoff, a self-wake is scheduled for the earliest eligibility
// instant.
func (m *Manager) dispatchOnce() {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	if m.planner.PendingLen() > 0 {
		m.exec.snapshot(now)
		if next := m.planner.Plan(now, &m.exec); !next.IsZero() {
			m.wakeAtLocked(next)
		}
	}
	m.mu.Unlock()
}

// plannerExec executes planner decisions against the live world. Its
// methods are called synchronously from plan.Plan while m.mu is held, so
// each bind is visible to the next unit's candidate query within the
// same tick.
type plannerExec struct {
	m   *Manager
	now time.Time
	// The tick's capacity snapshot: the running, reachable pilots with free
	// cores, in submission order, and the most any one of them has free.
	// snapshot takes it, Bind debits it, Candidates reads nothing else.
	caps    []pilotCap
	maxFree int
	// The last Candidates answer and the pilots behind it, index for
	// index; both are scratch reused by the next call.
	cands  []plan.Candidate
	pilots []*Pilot
}

// pilotCap is one pilot's free capacity as the running tick sees it.
type pilotCap struct {
	p    *Pilot
	free int
}

// snapshot opens a tick at now: one pass over the pilots, and their
// backends' fault switchboards, for the whole tick. It holds for the tick
// because nothing but the tick's own binds moves capacity inside it (the
// monotonicity contract on plan.Executor.Candidates): a pilot that starts,
// ends, gets slots back or whose backend goes down or comes back does so
// between ticks, and each of those is followed by a wake. A pilot with no
// free core can host nothing (a unit needs at least one) and is left out.
func (e *plannerExec) snapshot(now time.Time) {
	e.now, e.caps, e.maxFree = now, e.caps[:0], 0
	for _, p := range e.m.pilots {
		free := p.FreeCores()
		if p.state == PilotRunning && free > 0 && !p.faults.Down() {
			e.caps = append(e.caps, pilotCap{p, free})
			e.maxFree = max(e.maxFree, free)
		}
	}
}

// Candidates implements plan.Executor: the running pilots with at least
// u.Cores free, in submission order, read off the tick's snapshot without
// taking a lock; a unit larger than every pilot's free capacity is refused
// without a look at the pilots. A pilot whose backend is inside an injected
// outage window is unreachable and therefore not a candidate. Nothing else
// about the unit filters (plan.Executor's monotonicity contract).
func (e *plannerExec) Candidates(u plan.UnitSpec) []plan.Candidate {
	e.cands, e.pilots = e.cands[:0], e.pilots[:0]
	if u.Cores > e.maxFree {
		return e.cands
	}
	for _, c := range e.caps {
		if c.free >= u.Cores {
			e.cands = append(e.cands, plan.Candidate{ID: c.p.id, Backend: c.p.desc.Resource, FreeCores: c.free})
			e.pilots = append(e.pilots, c.p)
		}
	}
	return e.cands
}

// Bind implements plan.Executor: reserve cores — on the pilot and in the
// tick's snapshot — mark the unit Scheduled and hand it to the pilot's
// agent. The planner binds only to a pilot the last Candidates call
// offered, and has already dequeued the unit, so a pilot outside that
// answer would lose the unit: it is a broken contract, and panics.
func (e *plannerExec) Bind(u plan.UnitSpec, pilotID string) {
	m := e.m
	cu := m.units[u.Ordinal-1]
	var p *Pilot
	for i, c := range e.cands {
		if c.ID == pilotID {
			p = e.pilots[i]
			break
		}
	}
	if p == nil {
		panic("core: the planner bound " + u.ID + " to " + pilotID + ", which the tick did not offer")
	}
	p.freeCores.Add(-int64(cu.desc.Cores))
	p.running[cu] = struct{}{}
	e.debit(p, cu.desc.Cores)
	cu.state = UnitScheduled
	cu.pilot = p
	cu.scheduled = e.now
	if m.cfg.Clock.Recording() {
		m.cfg.Clock.Mark("bind "+u.ID+" -> "+pilotID, u.Ordinal)
	}
	m.notify(cu, UnitScheduled)
	p.pushWork(cu)
}

// debit takes cores off p's entry in the snapshot and finds the maximum
// again.
func (e *plannerExec) debit(p *Pilot, cores int) {
	e.maxFree = 0
	for i := range e.caps {
		c := &e.caps[i]
		if c.p == p {
			c.free -= cores
		}
		e.maxFree = max(e.maxFree, c.free)
	}
}

// wakeAtLocked schedules a dispatch self-wake at t (m.mu must be held).
// Only an improvement on the earliest outstanding wake spawns a sleeper;
// late sleepers just trigger a no-op dispatch pass.
func (m *Manager) wakeAtLocked(t time.Time) {
	if m.closed {
		return
	}
	if !m.nextWake.IsZero() && !t.Before(m.nextWake) {
		return
	}
	m.nextWake = t
	d := max(t.Sub(m.cfg.Clock.Now()), 0)
	m.wg.Add(1)
	m.cfg.Clock.Go(func() {
		defer m.wg.Done()
		if !m.cfg.Clock.Sleep(m.ctx, d) {
			return
		}
		m.mu.Lock()
		if m.nextWake.Equal(t) {
			m.nextWake = time.Time{}
		}
		m.mu.Unlock()
		m.wake()
	})
}

// pilotStarted marks the pilot running once its agent starts (called
// from agentRun).
func (m *Manager) pilotStarted(p *Pilot) {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	p.state = PilotRunning
	p.freeCores.Store(int64(p.desc.Cores))
	p.startedAt = now
	m.mu.Unlock()
	p.started.Fire()
	m.wake()
}

// pilotEnded finalizes a pilot when its placeholder job terminates, and
// routes units that were assigned but never picked up through the
// planner's pre-start failure path.
func (m *Manager) pilotEnded(p *Pilot, job saga.Job) {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	switch job.State() {
	case saga.Done:
		p.state = PilotDone
	case saga.Canceled:
		p.state = PilotCanceled
		p.err = job.Err()
	default:
		p.state = PilotFailed
		p.err = job.Err()
	}
	p.ended = now
	// Units stuck in the work queue (agent gone) go back to the planner.
	stranded := p.workQ
	p.workQ = nil
	for _, cu := range stranded {
		m.returnSlots(p, cu)
		m.requeueOrFail(cu, plan.FailurePreStart,
			fmt.Errorf("core: pilot %s terminated before unit start", p.id))
	}
	m.mu.Unlock()
	p.started.Fire() // unblock WaitRunning callers on failed pilots
	p.done.Fire()
	m.wake()
}

// executeUnit stages, runs and finalizes one unit on pilot p. It runs on
// the agent's goroutine pool; ctx is the pilot's payload context, which
// the unit's staging and Run share: it ends only when the pilot is lost.
func (m *Manager) executeUnit(ctx context.Context, p *Pilot, cu *ComputeUnit) {
	m.mu.Lock()
	cu.attempts++
	// Stage inputs to the pilot's site (Pilot-Data integration).
	stage := len(cu.desc.InputData) > 0 && m.cfg.Data != nil
	if stage {
		cu.state = UnitStaging
		m.notify(cu, UnitStaging)
	}
	m.mu.Unlock()
	if stage {
		for _, id := range cu.desc.InputData {
			if err := m.cfg.Data.StageIn(ctx, id, p.site); err != nil {
				m.mu.Lock()
				m.returnSlots(p, cu)
				if ctx.Err() != nil {
					m.requeueOrFail(cu, plan.FailureExecution, fmt.Errorf("core: staging interrupted: %w", err))
				} else {
					m.finishUnit(cu, UnitFailed, fmt.Errorf("core: stage-in of %s failed: %w", id, err))
				}
				m.mu.Unlock()
				return
			}
		}
	}

	m.mu.Lock()
	cu.state = UnitRunning
	cu.started = m.cfg.Clock.Now()
	m.notify(cu, UnitRunning)
	m.mu.Unlock()

	tc := TaskContext{
		Unit:    cu,
		Cores:   cu.desc.Cores,
		Site:    p.site,
		Data:    m.cfg.Data,
		Sleep:   m.sleep,
		Compute: m.compute,
		Stream:  &cu.stream,
	}
	err := cu.desc.Run(ctx, tc)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.returnSlots(p, cu)
	switch {
	case ctx.Err() != nil:
		// The pilot died under the unit (walltime/eviction): retry budget
		// decides between requeue and failure.
		m.requeueOrFail(cu, plan.FailureExecution,
			fmt.Errorf("core: pilot %s lost during execution: %w", p.id, ctx.Err()))
	case err != nil:
		m.finishUnit(cu, UnitFailed, err)
	default:
		m.finishUnit(cu, UnitDone, nil)
	}
}

// returnSlots releases the unit's reservation on p (m.mu must be held).
func (m *Manager) returnSlots(p *Pilot, cu *ComputeUnit) {
	if _, ok := p.running[cu]; ok {
		delete(p.running, cu)
		p.freeCores.Add(int64(cu.desc.Cores))
		p.unitsDone++
	}
	m.wake()
}

// requeueOrFail routes a failed dispatch through the planner: one charge
// against the unit's shared MaxRetries budget, then either a backoff-
// delayed requeue or terminal failure (m.mu must be held).
func (m *Manager) requeueOrFail(cu *ComputeUnit, class plan.FailureClass, cause error) {
	if m.closed {
		m.finishUnit(cu, UnitCanceled, ErrManagerClosed)
		return
	}
	if !m.planner.Fail(cu.ord, class, m.cfg.Clock.Now()).Retry {
		m.finishUnit(cu, UnitFailed, cause)
		return
	}
	cu.state = UnitPending
	cu.pilot = nil
	m.notify(cu, UnitPending)
	m.wake()
}

// finishUnit moves a unit to a terminal state exactly once (m.mu must be
// held).
func (m *Manager) finishUnit(cu *ComputeUnit, s UnitState, err error) {
	if cu.state.Terminal() {
		return
	}
	cu.state = s
	cu.err = err
	cu.ended = m.cfg.Clock.Now()
	if cu.done != nil {
		cu.done.Fire()
	}
	m.notify(cu, s)
	m.planner.Forget(cu.ord)
	m.activeUnits--
	if m.activeUnits == 0 {
		m.idle.Fire()
	}
}

// ---------------------------------------------------------------------------
// Drift reconciliation
// ---------------------------------------------------------------------------

// reconcileLoop periodically compares desired vs actual state and applies
// corrections. While the manager has neither live pilots nor active units
// it parks without a deadline, so an idle manager adds no timeline events.
func (m *Manager) reconcileLoop() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		busy := m.activeUnits > 0
		if !busy {
			for _, p := range m.pilots {
				if !p.state.Terminal() {
					busy = true
					break
				}
			}
		}
		m.mu.Unlock()
		if !busy {
			if !m.reconKick.Wait(m.ctx) {
				return
			}
			continue
		}
		if !m.cfg.Clock.Sleep(m.ctx, m.cfg.ReconcileEvery) {
			return
		}
		m.ReconcileOnce()
	}
}

// ReconcileOnce runs one desired-vs-actual scan and corrects every drift
// confirmed by two consecutive scans (plan.Reconciler's anti-flap rule).
// It returns the corrections applied, in deterministic order.
//
// The desired-state snapshot holds the bound units only, in submission
// order: plan.DetectDrift treats a unit that is unbound, terminal or absent
// alike, so a deep backlog adds nothing to what a scan copies, indexes and
// compares. Units that finished since the last scan are dropped from the
// live list here instead of being looked at on every scan for the rest of
// the manager's life. Both snapshots are built in scratch the next scan
// reuses (the reconciler keeps the drifts it saw, never the snapshots).
// The scan and its corrections share one critical section, so every
// confirmed drift still holds when it is corrected.
func (m *Manager) ReconcileOnce() []plan.Drift {
	m.mu.Lock()
	defer m.mu.Unlock()
	units := m.reconUnits[:0]
	live := m.live[:0]
	for _, u := range m.live {
		if u.state.Terminal() {
			continue
		}
		if u.pilot != nil && (u.state == UnitScheduled || u.state == UnitStaging || u.state == UnitRunning) {
			units = append(units, plan.UnitStatus{
				ID: u.id, Bound: true, Started: u.state != UnitScheduled, Pilot: u.pilot.id,
			})
		}
		live = append(live, u)
	}
	m.live, m.reconUnits = live, units
	if n := len(m.pilots) - len(m.reconPilots); n > 0 {
		m.reconPilots = append(m.reconPilots, make([]plan.PilotStatus, n)...)
	}
	pilots := m.reconPilots[:len(m.pilots)]
	for i, p := range m.pilots {
		held := pilots[i].Units[:0]
		for _, cu := range p.workQ {
			held = append(held, cu.id)
		}
		for cu := range p.running {
			held = append(held, cu.id)
		}
		slices.Sort(held)
		pilots[i] = plan.PilotStatus{
			ID:       p.id,
			Running:  p.state == PilotRunning,
			Terminal: p.state.Terminal(),
			Units:    slices.Compact(held),
		}
	}
	confirmed := m.recon.Observe(units, pilots)
	for _, d := range confirmed {
		m.applyDrift(d, m.unitNamed(d.Unit), m.pilotByID[d.Pilot])
	}
	return confirmed
}

// applyDrift corrects one confirmed drift (m.mu must be held).
func (m *Manager) applyDrift(d plan.Drift, cu *ComputeUnit, p *Pilot) {
	switch d.Class {
	case plan.DriftOrphan:
		// The agent holds a unit the control plane no longer binds there:
		// release the reservation and drop it from the work queue.
		p.drop(cu)
		m.wake()

	case plan.DriftStateMismatch:
		// A live unit is bound to a terminal pilot: release its slot there
		// and route it through the planner's failure path.
		class := plan.FailurePreStart
		if cu.state == UnitStaging || cu.state == UnitRunning {
			class = plan.FailureExecution
		}
		p.drop(cu)
		m.requeueOrFail(cu, class, fmt.Errorf("core: reconcile: unit bound to terminated pilot %s", p.id))

	default: // plan.DriftMissingOnAgent
		// A bound unit vanished from the agent's bookkeeping: restore the
		// reservation, and re-queue it with the agent if it had not
		// started executing.
		p.running[cu] = struct{}{}
		p.freeCores.Add(-int64(cu.desc.Cores))
		if cu.state == UnitScheduled {
			p.pushWork(cu)
		}
	}
}
