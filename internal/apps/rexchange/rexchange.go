// Package rexchange implements the (adaptive) replica-exchange molecular
// dynamics case study [48], [72] — the application that drove the first
// pilot system and the paper's canonical Table I "Task-Parallel" scenario.
//
// Each cycle runs one MD compute-unit per replica (a synthetic MD kernel:
// modeled compute plus a real Metropolis random walk over a potential),
// then a synchronous exchange phase attempts temperature swaps between
// neighbouring replicas with the standard parallel-tempering criterion.
// The adaptive variant ([48]) retunes the temperature ladder at runtime
// when acceptance drifts from the target — the paper's R3 dynamism.
package rexchange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
)

// Replica is the state of one ensemble member.
type Replica struct {
	// ID indexes the replica.
	ID int
	// Temperature of the replica's thermostat.
	Temperature float64
	// Energy is the current potential energy.
	Energy float64
	// Position is the 1-D reaction coordinate of the synthetic potential.
	Position float64
}

// Config describes a replica-exchange run.
type Config struct {
	// Replicas is the ensemble size; each replica's MD phase is a
	// one-core unit.
	Replicas int
	// Cycles is the number of MD+exchange generations.
	Cycles int
	// MDTime samples the modeled MD phase duration (seconds).
	MDTime dist.Dist
	// ExchangeTime is the modeled synchronous exchange cost per cycle.
	ExchangeTime time.Duration
	// TMin and TMax bound the temperature ladder.
	TMin, TMax float64
	// Adaptive retunes the ladder when acceptance leaves
	// [TargetAcceptance/2, min(1, 2·TargetAcceptance)].
	Adaptive         bool
	TargetAcceptance float64
	// Stream is the run's slot on the experiment's seeding spine. The
	// driver (initial positions, exchange decisions) draws from its
	// "driver" child and replica i's Metropolis walk from its
	// "replica"/<i> child, so replica walks are independent of unit
	// placement and of one another. Defaults to the manager's
	// "app/rexchange" child.
	Stream *dist.Stream
}

// stepsPerCycle is the number of real Metropolis steps per MD phase.
const stepsPerCycle = 200

func (c *Config) withDefaults() Config {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = 8
	}
	if out.Cycles <= 0 {
		out.Cycles = 4
	}
	if out.MDTime == nil {
		out.MDTime = dist.Constant(10)
	}
	if out.TMin <= 0 {
		out.TMin = 1
	}
	if out.TMax <= out.TMin {
		out.TMax = out.TMin * 8
	}
	if out.TargetAcceptance <= 0 || out.TargetAcceptance >= 1 {
		out.TargetAcceptance = 0.25
	}
	return out
}

// Result reports a completed run.
type Result struct {
	// Replicas is the final ensemble state.
	Replicas []Replica
	// CycleTimes records the modeled duration of each cycle.
	CycleTimes []time.Duration
	// Elapsed is the total modeled runtime.
	Elapsed time.Duration
	// ExchangesAttempted and ExchangesAccepted count swap proposals.
	ExchangesAttempted int
	ExchangesAccepted  int
	// LadderRetunes counts adaptive ladder adjustments.
	LadderRetunes int
}

// AcceptanceRatio returns accepted/attempted exchanges.
func (r *Result) AcceptanceRatio() float64 {
	if r.ExchangesAttempted == 0 {
		return 0
	}
	return float64(r.ExchangesAccepted) / float64(r.ExchangesAttempted)
}

// potential is the synthetic double-well landscape the replicas explore:
// rough, multi-minimum, cheap to evaluate.
func potential(x float64) float64 {
	return 0.05*x*x*x*x - 2*x*x + 3*math.Sin(3*x)
}

// mdPhase advances a replica with Metropolis steps at its temperature —
// the real computation of the kernel.
func mdPhase(r *Replica, steps int, rng *dist.Stream) {
	for s := 0; s < steps; s++ {
		trial := r.Position + rng.NormFloat64()*0.5
		dE := potential(trial) - r.Energy
		if dE <= 0 || rng.Float64() < math.Exp(-dE/r.Temperature) {
			r.Position = trial
			r.Energy += dE
		}
	}
}

// geometricLadder spaces temperatures geometrically, the standard choice.
func geometricLadder(n int, tmin, tmax float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = tmin
		return out
	}
	ratio := math.Pow(tmax/tmin, 1/float64(n-1))
	t := tmin
	for i := range out {
		out[i] = t
		t *= ratio
	}
	return out
}

// Run executes the ensemble on mgr's pilots, one compute-unit per replica
// per cycle, with a synchronous exchange between cycles.
func Run(ctx context.Context, mgr *core.Manager, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if mgr == nil {
		return nil, errors.New("rexchange: nil manager")
	}
	clock := mgr.Clock()
	if cfg.Stream == nil {
		cfg.Stream = mgr.Stream().Named("app/rexchange")
	}
	master := cfg.Stream.Named("driver")
	replicaRoot := cfg.Stream.Named("replica")
	ladder := geometricLadder(cfg.Replicas, cfg.TMin, cfg.TMax)

	replicas := make([]Replica, cfg.Replicas)
	walks := make([]*dist.Stream, cfg.Replicas)
	for i := range replicas {
		replicas[i] = Replica{ID: i, Temperature: ladder[i], Position: master.NormFloat64()}
		replicas[i].Energy = potential(replicas[i].Position)
		walks[i] = replicaRoot.SplitLabel(uint64(i))
	}

	res := &Result{}
	start := clock.Now()

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		cycleStart := clock.Now()

		// MD phase: one unit per replica, barrier at cycle end (the
		// synchronous ensemble pattern of [48]).
		var mu sync.Mutex
		units := make([]*core.ComputeUnit, 0, cfg.Replicas)
		for i := range replicas {
			i := i
			mdDur := time.Duration(cfg.MDTime.Sample() * float64(time.Second))
			// Replica i's walk continues its own labeled stream across
			// cycles, wherever the unit lands.
			rng := walks[i]
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name:  fmt.Sprintf("rex-c%d-r%d", cycle, i),
				Cores: 1,
				Run: func(ctx context.Context, tc core.TaskContext) error {
					if !tc.Sleep(ctx, mdDur) {
						return ctx.Err()
					}
					mu.Lock()
					r := replicas[i]
					mu.Unlock()
					mdPhase(&r, stepsPerCycle, rng)
					mu.Lock()
					replicas[i] = r
					mu.Unlock()
					return nil
				},
			})
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		for _, u := range units {
			if s, err := u.Wait(ctx); s != core.UnitDone {
				return nil, fmt.Errorf("rexchange: MD unit %s %v: %w", u.ID(), s, err)
			}
		}

		// Exchange phase (synchronous, alternating even/odd pairs).
		if cfg.ExchangeTime > 0 {
			if !clock.Sleep(ctx, cfg.ExchangeTime) {
				return nil, ctx.Err()
			}
		}
		off := cycle % 2
		cycleAttempted, cycleAccepted := 0, 0
		for i := off; i+1 < len(replicas); i += 2 {
			a, b := &replicas[i], &replicas[i+1]
			cycleAttempted++
			delta := (1/a.Temperature - 1/b.Temperature) * (b.Energy - a.Energy)
			if delta <= 0 || master.Float64() < math.Exp(-delta) {
				a.Temperature, b.Temperature = b.Temperature, a.Temperature
				cycleAccepted++
			}
		}
		res.ExchangesAttempted += cycleAttempted
		res.ExchangesAccepted += cycleAccepted

		// Adaptive ladder retuning [48]: compress the ladder when this
		// cycle's acceptance falls below half the target, stretch it when
		// exchanges are accepted too freely (replicas too close in T).
		if cfg.Adaptive && cycleAttempted > 0 {
			acc := float64(cycleAccepted) / float64(cycleAttempted)
			lo, hi := cfg.TargetAcceptance/2, math.Min(1, cfg.TargetAcceptance*2)
			if acc < lo || acc > hi {
				factor := 0.7
				if acc > hi {
					factor = 1.4
				}
				cfg.TMax = math.Max(cfg.TMin*1.5, cfg.TMax*factor)
				ladder = geometricLadder(cfg.Replicas, cfg.TMin, cfg.TMax)
				for i := range replicas {
					replicas[i].Temperature = ladder[i]
				}
				res.LadderRetunes++
			}
		}
		res.CycleTimes = append(res.CycleTimes, clock.Now().Sub(cycleStart))
	}
	res.Replicas = replicas
	res.Elapsed = clock.Now().Sub(start)
	return res, nil
}
