// Package scheduler provides the pluggable late-binding policies used by
// the pilot manager. The paper's R4 (performance/efficiency for diverse
// task workloads) and Pilot-Data's data-aware placement [66] are realized
// here: the same application code can run under the manager's built-in
// FIFO first-fit, or under the least-loaded and data-aware policies of
// this package, which is exactly the trade-off surface the abstraction is
// meant to expose (§VI "Abstraction Design").
package scheduler

import (
	"gopilot/internal/core"
	"gopilot/internal/infra"
)

// LeastLoaded binds each unit to the candidate with the most free cores,
// balancing load when tasks are heterogeneous.
type LeastLoaded struct{}

// Name implements core.Scheduler.
func (LeastLoaded) Name() string { return "least-loaded" }

// SelectPilot implements core.Scheduler.
func (LeastLoaded) SelectPilot(_ *core.ComputeUnit, candidates []*core.Pilot, _ core.DataService) *core.Pilot {
	best := candidates[0]
	bestFree := best.FreeCores()
	for _, p := range candidates[1:] {
		if f := p.FreeCores(); f > bestFree {
			best, bestFree = p, f
		}
	}
	return best
}

// DataAware implements Pilot-Data's affinity scheduling: a unit is placed
// on the pilot co-located with the largest share of its input bytes. When
// no candidate holds any input data (or the unit has none), it falls back
// to least-loaded. A unit's explicit AffinitySite takes precedence over
// data locality.
//
// Strict mode defers units (returns nil) until a pilot at the best data
// site has capacity; non-strict mode always places somewhere, trading
// locality for utilization — the knob the paper's Pilot-Data evaluation
// turns (E4).
type DataAware struct {
	// Strict defers placement until the preferred site is available.
	Strict bool
}

// Name implements core.Scheduler.
func (d DataAware) Name() string {
	if d.Strict {
		return "data-aware-strict"
	}
	return "data-aware"
}

// SelectPilot implements core.Scheduler.
func (d DataAware) SelectPilot(cu *core.ComputeUnit, candidates []*core.Pilot, data core.DataService) *core.Pilot {
	desc := cu.Description()

	// Explicit affinity dominates.
	if desc.AffinitySite != "" {
		for _, p := range candidates {
			if p.Site() == desc.AffinitySite {
				return p
			}
		}
		if d.Strict {
			return nil
		}
	}

	if data != nil && len(desc.InputData) > 0 {
		local := localBytes(desc.InputData, candidates, data)
		var best *core.Pilot
		var bestBytes int64 = -1
		for _, p := range candidates {
			if b := local[p.Site()]; b > bestBytes {
				best, bestBytes = p, b
			}
		}
		if bestBytes > 0 {
			return best
		}
		if d.Strict {
			// Data exists but no candidate is co-located: wait for one.
			if anyReplicaExists(desc.InputData, data) {
				return nil
			}
		}
	}
	return LeastLoaded{}.SelectPilot(cu, candidates, data)
}

// localBytes sums, per candidate site, the input bytes already resident.
func localBytes(ids []string, candidates []*core.Pilot, data core.DataService) map[infra.Site]int64 {
	out := make(map[infra.Site]int64, len(candidates))
	for _, id := range ids {
		sites, ok := data.Locate(id)
		if !ok {
			continue
		}
		size, _ := data.Size(id)
		for _, s := range sites {
			out[s] += size
		}
	}
	return out
}

func anyReplicaExists(ids []string, data core.DataService) bool {
	for _, id := range ids {
		if sites, ok := data.Locate(id); ok && len(sites) > 0 {
			return true
		}
	}
	return false
}

var (
	_ core.Scheduler = LeastLoaded{}
	_ core.Scheduler = DataAware{}
)
