// Package enkf implements the Ensemble Kalman Filter case study [50]: an
// autonomic, dynamically adaptive ensemble application. Each assimilation
// cycle forecasts every ensemble member forward with a stochastic linear
// model (one pilot compute-unit per member), then performs the standard
// stochastic-EnKF analysis update against synthetic observations. The
// ensemble size adapts at runtime to the observed spread — the behaviour
// that exercises R3 (dynamism): task counts are not known in advance.
package enkf

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

// Config describes an EnKF run.
type Config struct {
	// StateDim is the model state dimension.
	StateDim int
	// InitialEnsemble is the starting member count.
	InitialEnsemble int
	// MinEnsemble/MaxEnsemble bound adaptive resizing.
	MinEnsemble, MaxEnsemble int
	// Cycles is the number of assimilation cycles.
	Cycles int
	// ForecastTime samples modeled per-member forecast cost (seconds).
	ForecastTime dist.Dist
	// ObsNoise is the observation error standard deviation.
	ObsNoise float64
	// SpreadTarget drives adaptation: spread above target grows the
	// ensemble (more members to localize), spread far below shrinks it.
	SpreadTarget float64
	// Adaptive enables runtime ensemble resizing.
	Adaptive bool
	// Stream is the run's slot on the experiment's seeding spine. The
	// driver (truth, observations, analysis, adaptation) draws from its
	// "driver" child; the m-th ensemble member ever created forecasts
	// from its "member"/<m> child, so growing or shrinking the ensemble
	// never shifts surviving members' draws. Defaults to the manager's
	// "app/enkf" child.
	Stream *dist.Stream
}

// modelNoise is the forecast process noise standard deviation.
const modelNoise = 0.2

func (c *Config) withDefaults() Config {
	out := *c
	if out.StateDim <= 0 {
		out.StateDim = 3
	}
	if out.InitialEnsemble <= 0 {
		out.InitialEnsemble = 16
	}
	if out.MinEnsemble <= 0 {
		out.MinEnsemble = 4
	}
	if out.MaxEnsemble <= 0 {
		out.MaxEnsemble = 64
	}
	if out.Cycles <= 0 {
		out.Cycles = 5
	}
	if out.ForecastTime == nil {
		out.ForecastTime = dist.Constant(5)
	}
	if out.ObsNoise <= 0 {
		out.ObsNoise = 0.5
	}
	if out.SpreadTarget <= 0 {
		out.SpreadTarget = 1.0
	}
	return out
}

// CycleStats reports one assimilation cycle.
type CycleStats struct {
	Cycle    int
	Members  int
	Spread   float64
	RMSE     float64
	Duration time.Duration
}

// Result reports a completed run.
type Result struct {
	Cycles  []CycleStats
	Elapsed time.Duration
	// FinalEnsemble is the member count after adaptation.
	FinalEnsemble int
	// Resizes counts adaptive ensemble-size changes.
	Resizes int
}

// model advances a state one step: contraction plus a weak circulant
// coupling, with process noise. The linear part has spectral radius
// 0.92+0.05 < 1, so the system is stable and the filter cannot be saved
// by divergence of the truth itself.
func model(x []float64, noise float64, rng *dist.Stream) []float64 {
	d := len(x)
	out := make([]float64, d)
	for i := range out {
		j := (i + 1) % d
		out[i] = 0.92*x[i] + 0.05*x[j] + rng.NormFloat64()*noise
	}
	return out
}

// Run executes the EnKF workflow on mgr's pilots and returns per-cycle
// statistics. The "truth" trajectory is simulated alongside to score RMSE.
func Run(ctx context.Context, mgr *core.Manager, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if mgr == nil {
		return nil, errors.New("enkf: nil manager")
	}
	clock := mgr.Clock()
	if cfg.Stream == nil {
		cfg.Stream = mgr.Stream().Named("app/enkf")
	}
	master := cfg.Stream.Named("driver")
	memberRoot := cfg.Stream.Named("member")
	d := cfg.StateDim

	// Truth and initial ensemble around it. Each member ever created gets
	// the next "member"/<ordinal> stream for its forecasts; ordinals are
	// never reused, so resizing the ensemble cannot shift the draws of
	// members that survive it.
	created := 0
	mintWalk := func() *dist.Stream {
		s := memberRoot.SplitLabel(uint64(created))
		created++
		return s
	}
	truth := make([]float64, d)
	for i := range truth {
		truth[i] = master.NormFloat64() * 2
	}
	members := make([][]float64, cfg.InitialEnsemble)
	walks := make([]*dist.Stream, cfg.InitialEnsemble)
	for m := range members {
		members[m] = make([]float64, d)
		for i := range members[m] {
			members[m][i] = truth[i] + master.NormFloat64()
		}
		walks[m] = mintWalk()
	}

	res := &Result{}
	start := clock.Now()

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		cycleStart := clock.Now()
		// Truth advances (no assimilation noise on truth's own draw).
		truth = model(truth, modelNoise, master)
		// Synthetic observation of the full state.
		obs := make([]float64, d)
		for i := range obs {
			obs[i] = truth[i] + master.NormFloat64()*cfg.ObsNoise
		}

		// Forecast: one compute-unit per member (dynamic count!).
		var mu sync.Mutex
		units := make([]*core.ComputeUnit, 0, len(members))
		for m := range members {
			m := m
			cost := time.Duration(cfg.ForecastTime.Sample() * float64(time.Second))
			rng := walks[m]
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: fmt.Sprintf("enkf-c%d-m%d", cycle, m),
				Run: func(ctx context.Context, tc core.TaskContext) error {
					if !tc.Sleep(ctx, cost) {
						return ctx.Err()
					}
					mu.Lock()
					x := members[m]
					mu.Unlock()
					nx := model(x, modelNoise, rng)
					mu.Lock()
					members[m] = nx
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
				return nil, fmt.Errorf("enkf: forecast unit %s %v: %w", u.ID(), s, err)
			}
		}

		// Analysis: stochastic EnKF with diagonal observation operator.
		analyze(members, obs, cfg.ObsNoise, master)

		spread := ensembleSpread(members)
		rmse := rmseTo(members, truth)
		res.Cycles = append(res.Cycles, CycleStats{
			Cycle:    cycle,
			Members:  len(members),
			Spread:   spread,
			RMSE:     rmse,
			Duration: clock.Now().Sub(cycleStart),
		})

		// Adaptation: spread too large → add members (cloned + jitter);
		// spread far below target → retire members.
		if cfg.Adaptive {
			switch {
			case spread > cfg.SpreadTarget*1.5 && len(members) < cfg.MaxEnsemble:
				add := len(members) / 2
				if len(members)+add > cfg.MaxEnsemble {
					add = cfg.MaxEnsemble - len(members)
				}
				for a := 0; a < add; a++ {
					src := members[master.Intn(len(members))]
					clone := make([]float64, d)
					for i := range clone {
						clone[i] = src[i] + master.NormFloat64()*0.1
					}
					members = append(members, clone)
					walks = append(walks, mintWalk())
				}
				res.Resizes++
			case spread < cfg.SpreadTarget/4 && len(members) > cfg.MinEnsemble:
				keep := len(members) * 3 / 4
				if keep < cfg.MinEnsemble {
					keep = cfg.MinEnsemble
				}
				members = members[:keep]
				walks = walks[:keep]
				res.Resizes++
			}
		}
	}
	res.FinalEnsemble = len(members)
	res.Elapsed = clock.Now().Sub(start)
	return res, nil
}

// analyze applies the stochastic EnKF update with H = I and diagonal R.
func analyze(members [][]float64, obs []float64, obsNoise float64, rng *dist.Stream) {
	n := len(members)
	if n < 2 {
		return
	}
	d := len(obs)
	mean := make([]float64, d)
	for _, m := range members {
		for i, v := range m {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	// Per-dimension variance (H = I keeps the update scalar per dim).
	variance := make([]float64, d)
	for _, m := range members {
		for i, v := range m {
			dv := v - mean[i]
			variance[i] += dv * dv
		}
	}
	r2 := obsNoise * obsNoise
	for i := range variance {
		variance[i] /= float64(n - 1)
	}
	for _, m := range members {
		for i := range m {
			gain := variance[i] / (variance[i] + r2)
			perturbedObs := obs[i] + rng.NormFloat64()*obsNoise
			m[i] += gain * (perturbedObs - m[i])
		}
	}
}

// ensembleSpread is the mean per-dimension standard deviation.
func ensembleSpread(members [][]float64) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	d := len(members[0])
	mean := make([]float64, d)
	for _, m := range members {
		for i, v := range m {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	var total float64
	for i := 0; i < d; i++ {
		var ss float64
		for _, m := range members {
			dv := m[i] - mean[i]
			ss += dv * dv
		}
		total += math.Sqrt(ss / float64(n-1))
	}
	return total / float64(d)
}

// rmseTo scores the ensemble mean against the truth.
func rmseTo(members [][]float64, truth []float64) float64 {
	n := len(members)
	d := len(truth)
	mean := make([]float64, d)
	for _, m := range members {
		for i, v := range m {
			mean[i] += v
		}
	}
	var ss float64
	for i := range mean {
		mean[i] /= float64(n)
		dv := mean[i] - truth[i]
		ss += dv * dv
	}
	return math.Sqrt(ss / float64(d))
}
