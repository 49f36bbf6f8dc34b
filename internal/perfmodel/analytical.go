// Package perfmodel provides the two modeling families the paper's
// evaluation uses (§V.C, Fig. 4): white-box *analytical* models — pilot
// makespan, the replica-exchange runtime model of Thota et al. [72] — and
// black-box *statistical* models (ordinary least squares) used for
// streaming-throughput prediction [73]. Experiments compare these
// predictions against the concurrent runtime's measurements.
package perfmodel

import (
	"math"
	"slices"
	"time"

	"gopilot/internal/dist"
)

// PilotMakespan predicts the modeled makespan of a bag of n identical
// tasks of service time t on a pilot with `cores` slots, including pilot
// startup (queue wait + dispatch) and a per-task management overhead.
//
//	T = startup + ceil(n/cores)·t + n·overhead
//
// The n·overhead term models the manager's serial dispatch cost and
// matches the pilot-overhead characterization of E2.
func PilotMakespan(n, cores int, t, startup, perTaskOverhead time.Duration) time.Duration {
	if n <= 0 || cores <= 0 {
		return 0
	}
	waves := (n + cores - 1) / cores
	return startup + time.Duration(waves)*t + time.Duration(n)*perTaskOverhead
}

// RexModel is the analytical replica-exchange runtime model (after Thota
// et al. [72]): M replicas, each needing k cores, run MD cycles on a pilot
// of C cores; each cycle is followed by a synchronous exchange phase.
type RexModel struct {
	// Replicas is the ensemble size M.
	Replicas int
	// CoresPerReplica is k.
	CoresPerReplica int
	// PilotCores is C.
	PilotCores int
	// MD is the per-replica MD phase duration per cycle.
	MD time.Duration
	// Exchange is the synchronous exchange phase per cycle.
	Exchange time.Duration
	// Startup is pilot queue wait + dispatch.
	Startup time.Duration
}

// Concurrency returns how many replicas run simultaneously.
func (m RexModel) Concurrency() int {
	if m.CoresPerReplica <= 0 || m.PilotCores <= 0 {
		return 0
	}
	c := m.PilotCores / m.CoresPerReplica
	if c < 1 {
		return 0
	}
	if c > m.Replicas {
		return m.Replicas
	}
	return c
}

// CycleTime returns the modeled duration of one MD+exchange cycle.
func (m RexModel) CycleTime() time.Duration {
	conc := m.Concurrency()
	if conc == 0 {
		return 0
	}
	waves := (m.Replicas + conc - 1) / conc
	return time.Duration(waves)*m.MD + m.Exchange
}

// Total returns the modeled runtime for the given number of cycles.
func (m RexModel) Total(cycles int) time.Duration {
	return m.Startup + time.Duration(cycles)*m.CycleTime()
}

// Efficiency returns useful MD core-time over total pilot core-time for
// the given number of cycles — the utilization the paper's ensemble
// studies report.
func (m RexModel) Efficiency(cycles int) float64 {
	total := m.Total(cycles)
	if total <= 0 || m.PilotCores <= 0 {
		return 0
	}
	useful := float64(cycles) * float64(m.Replicas) * float64(m.CoresPerReplica) * m.MD.Seconds()
	return useful / (float64(m.PilotCores) * total.Seconds())
}

// DirectSubmissionSim predicts the makespan of running n tasks as
// *individual batch jobs*: every job pays its own sampled queue wait, and
// at most `slots` jobs run concurrently (the user's fair-share
// allocation), started first-eligible-first-served. This is the no-pilot
// baseline of the late-binding experiment E9. With one service time t the
// schedule has a closed form — the i-th job by eligibility starts when it
// is eligible and the job `slots` places ahead of it has finished — so no
// event engine is needed. The qwait distribution must be seeded for
// reproducibility.
func DirectSubmissionSim(n, slots int, t time.Duration, qwait dist.Dist) time.Duration {
	if n <= 0 {
		return 0
	}
	if slots <= 0 {
		slots = n
	}
	start := make([]time.Duration, n) // eligibility draws, then start times
	for i := range start {
		start[i] = time.Duration(qwait.Sample() * float64(time.Second))
	}
	slices.Sort(start)
	for i := slots; i < n; i++ {
		start[i] = max(start[i], start[i-slots]+t)
	}
	return start[n-1] + t
}

// PilotSubmissionSim predicts the pilot-based makespan for the same
// workload: one placeholder job pays one queue wait, then n tasks run
// back-to-back on `cores` slots with a per-task dispatch overhead.
func PilotSubmissionSim(n, cores int, t time.Duration, qwait dist.Dist, perTaskOverhead time.Duration) time.Duration {
	startup := time.Duration(qwait.Sample() * float64(time.Second))
	return PilotMakespan(n, cores, t, startup, perTaskOverhead)
}

// CrossoverTasks estimates the smallest task count at which the pilot
// approach beats direct submission, by sweeping n (geometrically) through
// both simulators. It returns 0 if the pilot wins even for a single task,
// and -1 if direct submission wins throughout the sweep limit.
func CrossoverTasks(slots, cores int, t time.Duration, mkQwait func() dist.Dist, overhead time.Duration, maxN int) int {
	prevWinner := 0 // unknown
	for n := 1; n <= maxN; n *= 2 {
		direct := DirectSubmissionSim(n, slots, t, mkQwait())
		pilot := PilotSubmissionSim(n, cores, t, mkQwait(), overhead)
		if pilot < direct {
			if n == 1 {
				return 0
			}
			if prevWinner == 1 {
				return n
			}
		}
		if pilot < direct {
			prevWinner = 2
		} else {
			prevWinner = 1
		}
	}
	if prevWinner == 2 {
		return 0
	}
	return -1
}

// Percentile of the maximum of n iid samples — a closed-form helper for
// reasoning about direct submission: the expected makespan is governed by
// the max queue wait among n jobs. For a distribution with CDF F, the max
// of n samples has CDF F^n; this estimates its q-quantile empirically.
func MaxOfNQuantile(d dist.Dist, n int, q float64, draws int) float64 {
	if draws <= 0 {
		draws = 200
	}
	xs := make([]float64, draws)
	for i := range xs {
		m := 0.0
		for j := 0; j < n; j++ {
			if s := d.Sample(); s > m {
				m = s
			}
		}
		xs[i] = m
	}
	// Sort-free quantile via counting would be overkill; reuse math.
	return quantile(xs, q)
}

func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ { // insertion sort: draws are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
