package chaos

import (
	"cmp"
	"context"
	"slices"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/infra"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// Backend is one infrastructure target the engine can take down.
type Backend struct {
	// Name labels the backend in the applied-fault log.
	Name string
	// Faults is the backend's switchboard (its Faults() accessor).
	Faults *infra.Faults
	// OnRecover, if set, runs at the outage-clear instant — typically
	// Manager.Kick, so the dispatcher immediately re-considers pilots the
	// outage had filtered out of Candidates.
	OnRecover func()
}

// Targets are the live handles the engine injects faults into. Any
// subset may be nil/empty; faults without a target are logged as skipped
// rather than erroring, so one plan can run against scenarios of
// different shapes.
type Targets struct {
	// Clock paces the injection timeline (required).
	Clock vclock.Clock
	// Backends are outage victims, indexed by Target modulo the count.
	Backends []Backend
	// LivePilots returns the pilots currently eligible to crash; the
	// engine picks Target modulo the count. Return only non-terminal
	// pilots so crashes always hit something alive.
	LivePilots func() []*core.Pilot
	// Storm triggers an evict storm and reports how many glideins it hit.
	Storm func() int
	// Topic names the topic whose partitions stall faults hit.
	Topic string
	// Group is the consumer group churned by WorkerChurn.
	Group *streaming.Group
	// Cluster is the broker every stall, skew, shard and link fault acts on.
	Cluster *streaming.Cluster
}

// Applied is one injection-log entry: what a fault actually hit.
type Applied struct {
	// Fault is the scheduled fault.
	Fault Fault
	// At is the modeled injection instant (offset from Run's start).
	At time.Duration
	// Hit reports whether the fault found a victim.
	Hit bool
	// Note names the victim or the skip reason.
	Note string
}

// Engine replays a Plan against Targets. Run is a clock participant: it
// sleeps from event to event on the injected clock, so faults land at
// exact virtual instants, deterministically interleaved with the
// workload.
type Engine struct {
	plan    Plan
	t       Targets
	applied []Applied
}

// NewEngine pairs a plan with its targets.
func NewEngine(plan Plan, t Targets) *Engine {
	return &Engine{plan: plan, t: t}
}

// event is one timeline entry: a fault's injection or recovery.
type event struct {
	at  time.Duration
	seq int    // 2·i for fault i's injection, 2·i+1 for its recovery
	fn  step   // nil for a fault that found no victim when armed,
	why string // and then the miss note
}

// Run injects the plan and returns the injection log. It returns when
// the last event has fired or ctx is canceled; on cancellation every
// outstanding recovery runs immediately so no backend or partition is
// left down past the scenario.
func (e *Engine) Run(ctx context.Context) []Applied {
	events := e.timeline()
	start := e.t.Clock.Now()
	i := 0
	for ; i < len(events); i++ {
		if d := events[i].at - e.t.Clock.Now().Sub(start); d > 0 {
			if !e.t.Clock.Sleep(ctx, d) {
				break
			}
		}
		if ctx.Err() != nil {
			break
		}
		e.record(events[i], e.t.Clock.Now().Sub(start))
	}
	// Cancellation path: clear anything still down, at the current
	// instant, in plan order.
	rest := slices.DeleteFunc(events[i:], func(ev event) bool { return ev.seq%2 == 0 })
	slices.SortFunc(rest, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	now := e.t.Clock.Now().Sub(start)
	for _, ev := range rest {
		e.record(ev, now)
	}
	return e.applied
}

// record fires the event's step and logs what it hit.
func (e *Engine) record(ev event, now time.Duration) {
	f := e.plan.Faults[ev.seq/2]
	hit, note := false, ev.why
	if ev.fn != nil {
		hit, note = ev.fn()
	}
	e.applied = append(e.applied, Applied{Fault: f, At: now, Hit: hit, Note: note})
	// Marks land in the schedule recorder, so a recorded trace shows the
	// exact decision at which each fault entered the timeline.
	if e.t.Clock.Recording() {
		e.t.Clock.Mark("chaos "+f.Kind.String()+" "+note, uint64(f.Ordinal))
	}
}

// timeline arms every fault of the plan (its kind's row in the fault
// table) and returns the sorted events. Events sort by (at, seq): a
// recovery scheduled at the same instant as a later fault's injection
// runs first exactly when its fault was scheduled first — the plan's
// order is the tiebreak, fixed at compile time.
func (e *Engine) timeline() []event {
	events := make([]event, 0, 2*len(e.plan.Faults))
	for i, f := range e.plan.Faults {
		arm := f.Kind.row().arm
		if arm == nil {
			continue
		}
		inject, undo, why := arm(e.t, f)
		events = append(events, event{at: f.At, seq: 2 * i, fn: inject, why: why})
		if undo != nil {
			events = append(events, event{at: f.Until, seq: 2*i + 1, fn: undo})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return events
}
