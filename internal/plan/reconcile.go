package plan

import "slices"

// Drift reconciliation: the control plane's desired state (which pilot
// each unit is bound to) is compared against the agents' actual state
// (which units each pilot's work queue and running set hold), and every
// divergence is classified so the manager can correct it. Detection is a
// pure function of the two snapshots; the Reconciler adds only the
// anti-flap memory that keeps a transiently inconsistent snapshot (a
// unit observed between releasing its slot and finalizing) from
// triggering a correction.

// DriftClass classifies a desired-vs-actual divergence.
type DriftClass int

// Drift classes, after persys's reconciler taxonomy.
const (
	// DriftOrphan: an agent holds a unit the control plane no longer
	// binds there (terminal, forgotten, or re-bound elsewhere). The
	// correction releases the agent-side reservation.
	DriftOrphan DriftClass = iota
	// DriftStateMismatch: a live unit is bound to a pilot that is
	// already terminal. The correction routes the unit through the
	// planner's failure path (charge budget, back off, requeue).
	DriftStateMismatch
	// DriftMissingOnAgent: a bound unit is absent from its running
	// pilot's work queue and running set. The correction restores the
	// reservation (and re-queues the unit with the agent if it had not
	// started).
	DriftMissingOnAgent
)

// String implements fmt.Stringer.
func (c DriftClass) String() string {
	switch c {
	case DriftOrphan:
		return "orphan"
	case DriftStateMismatch:
		return "state-mismatch"
	default:
		return "missing-on-agent"
	}
}

// UnitStatus is the desired-state snapshot of one unit.
type UnitStatus struct {
	// ID is the unit id.
	ID string
	// Terminal is true once the unit reached a final state.
	Terminal bool
	// Bound is true while the control plane binds the unit to a pilot.
	Bound bool
	// Started is true once the unit began staging or executing.
	Started bool
	// Pilot is the bound pilot's id ("" when not bound).
	Pilot string
}

// PilotStatus is the actual-state snapshot of one pilot's agent.
type PilotStatus struct {
	// ID is the pilot id.
	ID string
	// Running is true while the agent is live.
	Running bool
	// Terminal is true once the pilot reached a final state.
	Terminal bool
	// Units lists the unit ids the agent holds (work queue ∪ running
	// set), in deterministic order.
	Units []string
}

// Drift is one detected divergence.
type Drift struct {
	// Class is the divergence class.
	Class DriftClass
	// Unit is the affected unit id.
	Unit string
	// Pilot is the pilot on which the divergence was observed.
	Pilot string
}

// DetectDrift compares desired and actual state and returns every
// divergence, in deterministic order: unit-keyed classes follow the
// units slice, orphans follow the pilots slice. It is a pure function of
// its arguments.
//
// Only a bound, non-terminal unit can produce a unit-keyed drift or keep an
// id an agent holds from being an orphan; a unit that is unbound, terminal
// or absent from units is the same to both loops. A caller may therefore
// leave every such unit out of the snapshot and get the identical slice
// (TestDetectDriftNeedsOnlyBoundUnits) — the manager snapshots the bound
// units only, so a scan costs what is dispatched, not what is waiting.
func DetectDrift(units []UnitStatus, pilots []PilotStatus) []Drift {
	byUnit := make(map[string]*UnitStatus, len(units))
	for i := range units {
		byUnit[units[i].ID] = &units[i]
	}
	byPilot := make(map[string]*PilotStatus, len(pilots))
	for i := range pilots {
		byPilot[pilots[i].ID] = &pilots[i]
	}

	var out []Drift
	for _, u := range units {
		if u.Terminal || !u.Bound {
			continue
		}
		p, ok := byPilot[u.Pilot]
		if !ok || p.Terminal {
			out = append(out, Drift{Class: DriftStateMismatch, Unit: u.ID, Pilot: u.Pilot})
			continue
		}
		// An agent holds at most its core count in units: a search of its
		// list is cheaper than a set built to be asked once per unit.
		if p.Running && !slices.Contains(p.Units, u.ID) {
			out = append(out, Drift{Class: DriftMissingOnAgent, Unit: u.ID, Pilot: u.Pilot})
		}
	}
	for _, p := range pilots {
		for _, id := range p.Units {
			u, ok := byUnit[id]
			if !ok || u.Terminal || !u.Bound || u.Pilot != p.ID {
				out = append(out, Drift{Class: DriftOrphan, Unit: id, Pilot: p.ID})
			}
		}
	}
	return out
}

// Reconciler wraps DetectDrift with anti-flap confirmation: a drift is
// emitted only when observed in two consecutive scans. A snapshot taken
// in the instant between a unit releasing its pilot slot and reaching
// its terminal state looks drifted but heals itself; requiring a second
// sighting one reconcile interval later filters such transients while
// leaving the emission instant fully deterministic.
type Reconciler struct {
	seen map[Drift]bool
}

// NewReconciler creates a Reconciler.
func NewReconciler() *Reconciler { return &Reconciler{seen: make(map[Drift]bool)} }

// Observe runs one scan and returns the drifts confirmed by this and the
// previous scan, in detection order.
func (r *Reconciler) Observe(units []UnitStatus, pilots []PilotStatus) []Drift {
	detected := DetectDrift(units, pilots)
	next := make(map[Drift]bool, len(detected))
	var confirmed []Drift
	for _, d := range detected {
		if r.seen[d] {
			confirmed = append(confirmed, d)
		}
		next[d] = true
	}
	r.seen = next
	return confirmed
}
