package plan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gopilot/internal/dist"
)

func TestDetectDriftClassifiesAllThreeClasses(t *testing.T) {
	units := []UnitStatus{
		{ID: "u-ok", Bound: true, Started: true, Pilot: "p-live"},
		{ID: "u-dead-pilot", Bound: true, Pilot: "p-dead"},
		{ID: "u-ghost-pilot", Bound: true, Pilot: "p-unknown"},
		{ID: "u-missing", Bound: true, Started: true, Pilot: "p-live"},
		{ID: "u-done", Terminal: true},
		{ID: "u-moved", Bound: true, Pilot: "p-live2"},
	}
	pilots := []PilotStatus{
		{ID: "p-live", Running: true, Units: []string{"u-ok", "u-done", "u-moved"}},
		{ID: "p-live2", Running: true, Units: []string{"u-moved"}},
		{ID: "p-dead", Terminal: true},
	}
	got := DetectDrift(units, pilots)
	want := []Drift{
		{Class: DriftStateMismatch, Unit: "u-dead-pilot", Pilot: "p-dead"},
		{Class: DriftStateMismatch, Unit: "u-ghost-pilot", Pilot: "p-unknown"},
		{Class: DriftMissingOnAgent, Unit: "u-missing", Pilot: "p-live"},
		{Class: DriftOrphan, Unit: "u-done", Pilot: "p-live"},
		{Class: DriftOrphan, Unit: "u-moved", Pilot: "p-live"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectDrift:\n got  %v\n want %v", got, want)
	}
}

func TestDetectDriftCleanWorldIsQuiet(t *testing.T) {
	units := []UnitStatus{
		{ID: "u1", Bound: true, Started: true, Pilot: "p1"},
		{ID: "u2", Bound: true, Pilot: "p1"},
		{ID: "u3"}, // pending, unbound
		{ID: "u4", Terminal: true},
	}
	pilots := []PilotStatus{
		{ID: "p1", Running: true, Units: []string{"u1", "u2"}},
		{ID: "p2"}, // still pending: holds nothing, binds nothing
	}
	if got := DetectDrift(units, pilots); len(got) != 0 {
		t.Fatalf("clean world reported drift: %v", got)
	}
}

func TestDetectDriftPendingPilotIsNotMissing(t *testing.T) {
	// A unit bound to a pilot whose agent has not come up yet is in a
	// legitimate hand-off window, not drifted: missing-on-agent requires a
	// Running pilot.
	units := []UnitStatus{{ID: "u1", Bound: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1"}}
	if got := DetectDrift(units, pilots); len(got) != 0 {
		t.Fatalf("hand-off window reported drift: %v", got)
	}
}

func TestReconcilerConfirmsOnSecondSighting(t *testing.T) {
	r := NewReconciler()
	units := []UnitStatus{{ID: "u1", Bound: true, Started: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1", Running: true}}
	if got := r.Observe(units, pilots); len(got) != 0 {
		t.Fatalf("first sighting already confirmed: %v", got)
	}
	got := r.Observe(units, pilots)
	want := []Drift{{Class: DriftMissingOnAgent, Unit: "u1", Pilot: "p1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second sighting: got %v, want %v", got, want)
	}
}

func TestReconcilerForgetsHealedTransients(t *testing.T) {
	r := NewReconciler()
	drifted := []UnitStatus{{ID: "u1", Bound: true, Started: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1", Running: true}}
	healed := []UnitStatus{{ID: "u1", Terminal: true}}

	r.Observe(drifted, pilots) // first sighting
	if got := r.Observe(healed, pilots); len(got) != 0 {
		t.Fatalf("healed world confirmed drift: %v", got)
	}
	// The sighting memory must have been cleared: a re-appearance starts
	// the two-scan confirmation over.
	if got := r.Observe(drifted, pilots); len(got) != 0 {
		t.Fatalf("stale sighting survived a clean scan: %v", got)
	}
}

// randomWorld draws a small desired/actual snapshot pair in which anything
// goes: a terminal unit may still carry a stale binding, a unit may be bound
// to a pilot nobody knows, and any unit may sit on any agent — bound there,
// bound elsewhere or not bound at all — so every drift class turns up.
func randomWorld(s *dist.Stream) ([]UnitStatus, []PilotStatus) {
	pilots := make([]PilotStatus, 1+s.Intn(5))
	for i := range pilots {
		pilots[i] = PilotStatus{ID: fmt.Sprintf("p%d", i), Running: s.Intn(3) > 0}
		pilots[i].Terminal = !pilots[i].Running && s.Intn(2) == 0
	}
	units := make([]UnitStatus, s.Intn(40))
	for i := range units {
		u := UnitStatus{ID: fmt.Sprintf("u%d", i), Terminal: s.Intn(3) == 0}
		if s.Intn(3) > 0 {
			u.Bound, u.Started = true, s.Intn(2) == 0
			u.Pilot = fmt.Sprintf("p%d", s.Intn(len(pilots)+1)) // sometimes unknown
		}
		for n := s.Intn(3); n > 0; n-- {
			p := &pilots[s.Intn(len(pilots))]
			p.Units = append(p.Units, u.ID)
		}
		units[i] = u
	}
	return units, pilots
}

// TestDetectDriftNeedsOnlyBoundUnits is the property that lets the manager
// snapshot bound units only: a unit that is terminal, unbound or absent is
// the same to DetectDrift (no unit-keyed drift; an agent holding it is an
// orphan in every case), so dropping every terminal unit from the snapshot,
// or every unit that is not both live and bound, yields the identical drift
// slice, in the identical order.
func TestDetectDriftNeedsOnlyBoundUnits(t *testing.T) {
	planted := map[DriftClass]int{}
	for seed := int64(1); seed <= 300; seed++ {
		units, pilots := randomWorld(dist.NewStream(seed))
		var live, bound []UnitStatus
		for _, u := range units {
			if !u.Terminal {
				live = append(live, u)
				if u.Bound {
					bound = append(bound, u)
				}
			}
		}
		all := DetectDrift(units, pilots)
		if onlyLive := DetectDrift(live, pilots); !reflect.DeepEqual(all, onlyLive) {
			t.Fatalf("seed %d: drift over all units %v, over live units only %v", seed, all, onlyLive)
		}
		if onlyBound := DetectDrift(bound, pilots); !reflect.DeepEqual(all, onlyBound) {
			t.Fatalf("seed %d: drift over all units %v, over bound units only %v", seed, all, onlyBound)
		}
		for _, d := range all {
			planted[d.Class]++
		}
	}
	for _, c := range []DriftClass{DriftOrphan, DriftStateMismatch, DriftMissingOnAgent} {
		if planted[c] == 0 {
			t.Errorf("no world held a %v drift: the property was not tested on it", c)
		}
	}
}

// TestReconcilerKeptIndexAnswersAsFresh: a Reconciler keeps DetectDrift's
// lookup maps from one scan to the next. Unit u is bound on pilot p in the
// first scan; from the second on, u is gone from the unit snapshot while p
// still lists it — an orphan. Observe must see it exactly as a fresh
// DetectDrift does and confirm it on the third scan; an index still holding
// the first scan's u would take p's entry for a binding and miss it.
func TestReconcilerKeptIndexAnswersAsFresh(t *testing.T) {
	r := NewReconciler()
	pilots := []PilotStatus{{ID: "p", Running: true, Units: []string{"u"}}}
	if got := r.Observe([]UnitStatus{{ID: "u", Bound: true, Started: true, Pilot: "p"}}, pilots); len(got) != 0 {
		t.Fatalf("a clean scan confirmed %v", got)
	}
	want := DetectDrift(nil, pilots)
	if len(want) != 1 || want[0] != (Drift{Class: DriftOrphan, Unit: "u", Pilot: "p"}) {
		t.Fatalf("DetectDrift = %v, want u an orphan on p", want)
	}
	if got := r.Observe(nil, pilots); len(got) != 0 {
		t.Fatalf("first sighting already confirmed: %v", got)
	}
	if got := r.Observe(nil, pilots); !reflect.DeepEqual(got, want) {
		t.Fatalf("second sighting: Observe confirmed %v, a fresh DetectDrift finds %v", got, want)
	}
}

// TestObserveConfirmsWhatTwoFreshScansFind: over sequences of snapshots —
// a fresh world, the last one with units dropped (the agents still holding
// them), or the same one again — Observe confirms exactly the drifts a
// fresh DetectDrift finds in both this snapshot and the last, in this
// snapshot's detection order.
func TestObserveConfirmsWhatTwoFreshScansFind(t *testing.T) {
	confirmed := 0
	for seed := int64(1); seed <= 200; seed++ {
		s := dist.NewStream(seed)
		r := NewReconciler()
		var last []Drift
		units, pilots := randomWorld(s)
		for scan := 0; scan < 12; scan++ {
			switch s.Intn(3) {
			case 0:
				units, pilots = randomWorld(s)
			case 1:
				var kept []UnitStatus
				for _, u := range units {
					if s.Intn(3) > 0 {
						kept = append(kept, u)
					}
				}
				units = kept
			}
			fresh := DetectDrift(units, pilots)
			var want []Drift
			for _, d := range fresh {
				if slices.Contains(last, d) {
					want = append(want, d)
				}
			}
			if got := r.Observe(units, pilots); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, scan %d: Observe confirmed %v, fresh scans agree on %v", seed, scan, got, want)
			}
			last, confirmed = fresh, confirmed+len(want)
		}
	}
	if confirmed == 0 {
		t.Fatal("no scan confirmed a drift: the property was not tested")
	}
}
