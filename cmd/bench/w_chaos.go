package main

import (
	"fmt"

	"gopilot/internal/chaos"
	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/vclock"
)

// chaosFaults is the workload's fault mix: the scenario's default mix
// without its one commit-skew fault. On the full default mix, a
// commit-skew window that overlaps the shard loss ends about 3 % of seeds
// with a deterministic cursor-rewind violation (README "Findings"); a
// timed workload must be one on which no op fails, so the timed mix
// leaves that one fault out and the traced run reports the full mix's
// violations beside it as chaos.default_mix_violations.
func chaosFaults() chaos.Config {
	cfg := experiments.DefaultChaosFaults()
	delete(cfg.Counts, chaos.CommitSkew)
	return cfg
}

// The scenario's default sizes (experiments.ChaosOptions).
const (
	chaosMessages = 1500
	chaosUnits    = 24
)

// chaosSeed maps the run seed to the i-th scenario seed: seed·1000 ….
func chaosSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runChaosFuzz is one repetition of chaos-fuzz: experiments.Chaos on
// consecutive seeds, the path `make chaos` and CI run. The scenario owns
// its clock, so there is nothing to wrap; everything reported comes from
// its ChaosReport, traced or not.
func runChaosFuzz(e *repEnv) (*repOutcome, error) {
	n := e.sizes.ChaosSeeds
	// Set-up: compile, from outside, the fault plan each seed dictates, so
	// the plan a scenario reports running can be checked against it.
	wantPlan := make([]uint64, n)
	for i := range wantPlan {
		wantPlan[i] = chaos.Compile(dist.NewStream(chaosSeed(e.seed, i)), chaosFaults()).Hash()
	}
	if !e.startTimed() {
		return nil, nil
	}
	reports := make([]*experiments.ChaosReport, n)
	for i := range reports {
		r, err := chaosScenario(e, i, chaosFaults(), "experiments.Chaos")
		if err != nil {
			return nil, err
		}
		reports[i] = r
	}
	e.stopTimed()

	out := &repOutcome{Attempted: int64(n)}
	dg := digest(0)
	var planned, hit, violations, decisions, rebalances, unitsFailed int
	for i, r := range reports {
		dg.mix(r.StateHash)
		dg.mix(r.Schedule.Hash)
		planned += len(r.Plan.Faults)
		for _, a := range r.Injected {
			if a.Hit {
				hit++
			}
		}
		decisions += int(r.Schedule.Decisions)
		rebalances += r.Rebalances
		unitsFailed += r.UnitsFail
		// The scenario's modeled span: the instant of its last recorded
		// scheduling decision.
		if ring := r.Schedule.Ring; len(ring) > 0 {
			out.SimMakespan += ring[len(ring)-1].At.Sub(vclock.Epoch).Seconds()
		}
		violations += len(r.Violations)
		switch {
		case r.Plan.Hash() != wantPlan[i]:
			out.Failed++
			out.Notes = append(out.Notes, fmt.Sprintf("seed %d ran fault plan %016x, the seed dictates %016x", r.Seed, r.Plan.Hash(), wantPlan[i]))
		case !r.Ok():
			out.Failed++
			if len(out.Notes) < 3 {
				out.Notes = append(out.Notes, fmt.Sprintf("seed %d: %v", r.Seed, r.Violations[0]))
			}
		}
	}
	out.Digest = uint64(dg)
	perSeed := func(total int) float64 { return float64(total) / float64(n) }
	out.Layer = map[string]float64{
		"chaos.faults_planned_per_seed": perSeed(planned),
		"chaos.faults_hit_per_seed":     perSeed(hit),
		"chaos.violations":              float64(violations),
		"chaos.decisions_per_seed":      perSeed(decisions),
		"chaos.rebalances_per_seed":     perSeed(rebalances),
		"chaos.units_failed":            float64(unitsFailed),
		"vclock.decisions_per_op":       perSeed(decisions),
	}
	if e.tr != nil {
		// The known baseline, reported not hidden: the same seeds on the
		// full default mix.
		var defaultMix int
		for i := 0; i < n; i++ {
			r, err := chaosScenario(e, i, chaos.Config{}, "experiments.Chaos(default mix)")
			if err != nil {
				return nil, err
			}
			defaultMix += len(r.Violations)
		}
		out.Layer["chaos.default_mix_violations"] = float64(defaultMix)
	}
	return out, nil
}

// chaosScenario runs the i-th seed's scenario under the given fault mix
// (the zero Config takes the scenario's default), inside a span when
// traced. The scenario does not expose its clock, so the span's sim
// times are -1.
func chaosScenario(e *repEnv, i int, faults chaos.Config, name string) (*experiments.ChaosReport, error) {
	seed := chaosSeed(e.seed, i)
	if e.tr != nil {
		id := e.tr.open(0, name, -1)
		defer e.tr.close(id, -1)
	}
	r, err := experiments.Chaos(experiments.ChaosOptions{Seed: seed, Faults: faults})
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: %w", seed, err)
	}
	return r, nil
}

// chaosExplainNS prices a fuzz repetition per seed: one testbed, the
// recorded scheduling decisions, the scenario's messages through a
// replication-3 publish, and its batch units' round trips.
func chaosExplainNS(m map[string]float64, seeds int64) float64 {
	return float64(seeds) * (m["experiments.testbed_roundtrip_ns"] +
		m["chaos.decisions_per_seed"]*m["vclock.decision_ns"] +
		chaosMessages*m["streaming.cluster.publish_r3_ns_per_msg"] +
		chaosUnits*m["core.unit_roundtrip_ns"])
}
