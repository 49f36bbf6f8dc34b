// Package miniapp implements the Mini-App framework [32] the paper builds
// its evaluation methodology on (§V.C): synthetic-but-representative
// workload generators plus automated, reproducible experiment execution —
// full factorial designs, repetitions, CSV collection — so the
// build-assess-refine loop of Figure 5 can run unattended.
//
// The framework follows the paper's five design principles: simplicity
// (declarative specs), relevance (caller-controlled workloads/metrics),
// scalability (any pilot backend), portability (infrastructure-agnostic
// via the pilot-abstraction) and reproducibility (seeded generators,
// machine-readable output).
package miniapp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/metrics"
)

// TaskWorkload generates a bag of synthetic compute tasks whose service
// times follow a distribution — the core "compute Mini-App".
type TaskWorkload struct {
	// Name prefixes unit names.
	Name string
	// Count is the number of tasks.
	Count int
	// Duration samples per-task service time in modeled seconds.
	Duration dist.Dist
	// Cores per task (default 1).
	Cores int
}

// Units materializes the workload as unit descriptions. Service times are
// sampled now (reproducibly, via the seeded Duration dist), so resubmitting
// the same generated slice replays the identical workload.
func (w TaskWorkload) Units() []core.UnitDescription {
	if w.Count <= 0 {
		return nil
	}
	cores := w.Cores
	if cores <= 0 {
		cores = 1
	}
	d := w.Duration
	if d == nil {
		d = dist.Constant(1)
	}
	out := make([]core.UnitDescription, w.Count)
	for i := range out {
		service := time.Duration(d.Sample() * float64(time.Second))
		out[i] = core.UnitDescription{
			Name:  fmt.Sprintf("%s-%04d", w.Name, i),
			Cores: cores,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !tc.Sleep(ctx, service) {
					return ctx.Err()
				}
				return nil
			},
		}
	}
	return out
}

// SubmitAndWait submits the workload to a manager and waits for all its
// units, returning the modeled makespan.
func (w TaskWorkload) SubmitAndWait(ctx context.Context, mgr *core.Manager) (time.Duration, error) {
	clock := mgr.Clock()
	start := clock.Now()
	units, err := mgr.SubmitUnits(w.Units())
	if err != nil {
		return 0, err
	}
	for _, u := range units {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			return 0, fmt.Errorf("miniapp: unit %s %v: %w", u.ID(), s, err)
		}
	}
	return clock.Since(start), nil
}

// Factor is one experimental factor with its levels (Jain's experimental
// design terminology [29]).
type Factor struct {
	Name   string
	Levels []float64
}

// Design is a full factorial experimental design.
type Design struct {
	Factors []Factor
}

// Points enumerates the cartesian product of factor levels in a stable
// order (first factor varies slowest).
func (d Design) Points() []map[string]float64 {
	points := []map[string]float64{{}}
	for _, f := range d.Factors {
		var next []map[string]float64
		for _, p := range points {
			for _, lv := range f.Levels {
				q := make(map[string]float64, len(p)+1)
				for k, v := range p {
					q[k] = v
				}
				q[f.Name] = lv
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// RunFunc executes one configuration and returns named metrics.
type RunFunc func(ctx context.Context, cfg map[string]float64, rep int) (map[string]float64, error)

// Row is one executed trial.
type Row struct {
	Config  map[string]float64
	Rep     int
	Metrics map[string]float64
	Err     error
}

// ResultSet collects trials of one experiment.
type ResultSet struct {
	Name    string
	Factors []string
	Rows    []Row
}

// Runner executes a design with repetitions — the automation the paper's
// "Automation" lesson calls for.
type Runner struct {
	// Name labels the experiment.
	Name string
	// Design enumerates configurations.
	Design Design
	// Repetitions per configuration (default 1).
	Repetitions int
	// Run executes one trial.
	Run RunFunc
	// ContinueOnError records failed trials instead of aborting.
	ContinueOnError bool
}

// Execute runs the full design sequentially (configurations must not share
// mutable infrastructure unless the RunFunc builds its own).
func (r Runner) Execute(ctx context.Context) (*ResultSet, error) {
	reps := r.Repetitions
	if reps <= 0 {
		reps = 1
	}
	var factors []string
	for _, f := range r.Design.Factors {
		factors = append(factors, f.Name)
	}
	rs := &ResultSet{Name: r.Name, Factors: factors}
	for _, cfg := range r.Design.Points() {
		for rep := 0; rep < reps; rep++ {
			if err := ctx.Err(); err != nil {
				return rs, err
			}
			m, err := r.Run(ctx, cfg, rep)
			rs.Rows = append(rs.Rows, Row{Config: cfg, Rep: rep, Metrics: m, Err: err})
			if err != nil && !r.ContinueOnError {
				return rs, fmt.Errorf("miniapp: %s %v rep %d: %w", r.Name, cfg, rep, err)
			}
		}
	}
	return rs, nil
}

// MetricNames returns the union of metric names across rows, sorted.
func (rs *ResultSet) MetricNames() []string {
	set := map[string]struct{}{}
	for _, row := range rs.Rows {
		for k := range row.Metrics {
			set[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Table renders the result set, one row per trial.
func (rs *ResultSet) Table() *metrics.Table {
	cols := append([]string{}, rs.Factors...)
	cols = append(cols, "rep")
	names := rs.MetricNames()
	cols = append(cols, names...)
	cols = append(cols, "error")
	t := metrics.NewTable(rs.Name, cols...)
	for _, row := range rs.Rows {
		vals := make([]any, 0, len(cols))
		for _, f := range rs.Factors {
			vals = append(vals, row.Config[f])
		}
		vals = append(vals, row.Rep)
		for _, n := range names {
			vals = append(vals, row.Metrics[n])
		}
		if row.Err != nil {
			vals = append(vals, row.Err.Error())
		} else {
			vals = append(vals, "")
		}
		t.AddRow(vals...)
	}
	return t
}

// WriteCSV writes the result set in CSV form.
func (rs *ResultSet) WriteCSV(w io.Writer) error { return rs.Table().WriteCSV(w) }

// Matrix extracts (X, y) regression inputs from the result set: features
// are the named factors, the target is a metric. Failed rows are skipped.
func (rs *ResultSet) Matrix(features []string, target string) (x [][]float64, y []float64) {
	for _, row := range rs.Rows {
		if row.Err != nil {
			continue
		}
		t, ok := row.Metrics[target]
		if !ok {
			continue
		}
		vec := make([]float64, len(features))
		for i, f := range features {
			vec[i] = row.Config[f]
		}
		x = append(x, vec)
		y = append(y, t)
	}
	return x, y
}
