package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/apps/enkf"
	"gopilot/internal/apps/mdanalysis"
	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/metrics"
	"gopilot/internal/miniapp"
	"gopilot/internal/perfmodel"
)

// Fig5Loop reproduces Figure 5's iterative build-assess-refine feedback
// loop, automated by the Mini-App framework (E10): sweep a streaming
// configuration, fit a performance model, use the model to *pick* the
// cheapest configuration meeting a throughput target, then verify the
// choice with a fresh run. The loop's output is the refined configuration
// — exactly the knowledge-generation cycle the paper describes.
func Fig5Loop(frames int) (*metrics.Table, []string, error) {
	if frames <= 0 {
		frames = 600
	}

	// Build + assess: the Mini-App sweep.
	design := miniapp.Design{Factors: []miniapp.Factor{
		{Name: "partitions", Levels: []float64{1, 2, 4}},
	}}
	runner := miniapp.Runner{
		Name:   "fig5-sweep",
		Design: design,
		Run: func(ctx context.Context, cfg map[string]float64, _ int) (map[string]float64, error) {
			tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 14})
			defer tb.Close()
			parts := int(cfg["partitions"])
			tput, _, err := StreamTrial(tb, parts, parts, frames, 10*time.Millisecond)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"throughput": tput}, nil
		},
	}
	rs, err := runner.Execute(context.Background())
	if err != nil {
		return nil, nil, err
	}
	x, y := rs.Matrix([]string{"partitions"}, "throughput")
	model, err := perfmodel.FitOLS(x, y, []string{"partitions"})
	if err != nil {
		return nil, nil, err
	}

	// Refine: the throughput target is expressed relative to the measured
	// baseline (1.5× the single-partition rate) so the loop is meaningful
	// at any virtual-time compression; pick the smallest partition count
	// whose predicted throughput clears it.
	targetThroughput := 1.5 * y[0]
	chosen := 0
	for p := 1; p <= 16; p++ {
		if model.Predict([]float64{float64(p)}) >= targetThroughput {
			chosen = p
			break
		}
	}
	modelPick := chosen > 0
	if !modelPick {
		// The model can be unreliable under heavy virtual-time compression
		// (noise flattens the slope). A practitioner then refines from the
		// raw sweep instead: take the best measured configuration. The loop
		// still closes — assess fed refine, refine gets verified.
		best := 0
		for i := range y {
			if y[i] > y[best] {
				best = i
			}
		}
		chosen = int(x[best][0])
		targetThroughput = y[best]
	}

	// Verify the refined configuration.
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 15})
	verified, _, err := StreamTrial(tb, chosen, chosen, frames, 10*time.Millisecond)
	tb.Close()
	if err != nil {
		return nil, nil, err
	}

	t := metrics.NewTable("Fig. 5 — automated build-assess-refine loop (Mini-App framework)",
		"phase", "configuration", "throughput_msg_s")
	for i := range x {
		t.AddRow("assess (sweep)", fmt.Sprintf("partitions=%g", x[i][0]), fmt.Sprintf("%.0f", y[i]))
	}
	pickLabel := "refine (model pick)"
	if !modelPick {
		pickLabel = "refine (best measured)"
	}
	t.AddRow(pickLabel, fmt.Sprintf("partitions=%d", chosen),
		fmt.Sprintf("%.0f (predicted)", model.Predict([]float64{float64(chosen)})))
	t.AddRow("verify (rerun)", fmt.Sprintf("partitions=%d", chosen), fmt.Sprintf("%.0f (measured)", verified))
	notes := []string{
		fmt.Sprintf("model: %s", model),
		fmt.Sprintf("target: %d msg/s; refined choice: %d partitions; verification %s",
			int(targetThroughput), chosen,
			map[bool]string{true: "MET", false: "MISSED"}[verified >= targetThroughput*0.9]),
	}
	return t, notes, nil
}

// AblationAlgorithm reproduces the §VI lesson "Optimize Application
// Algorithms" [53] (E11): the early-break Hausdorff algorithm versus
// scaling out the naive one. Both real computations run as pilot tasks;
// the table shows that the algorithmic improvement beats adding cores.
func AblationAlgorithm() (*metrics.Table, error) {
	const (
		atoms = 600
		pairs = 12
	)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Pre-generate trajectory frames for the pairwise comparison. The
	// frames are shared input data across both variants' testbeds, so they
	// hang off the exhibit's own root (same seed as its testbeds), not off
	// any one testbed.
	trajRoot := dist.NewStream(16).Named("trajectory")
	frames := make([]mdanalysis.Frame, pairs+1)
	for i := range frames {
		frames[i] = mdanalysis.GenerateTrajectory(atoms, 1, 1.0, trajRoot.SplitLabel(uint64(i)))[0]
	}

	t := metrics.NewTable(
		fmt.Sprintf("E11 — algorithm vs scale-out (Hausdorff, %d pairs × %d atoms)", pairs, atoms),
		"variant", "cores", "makespan_wall_ms", "distance_ops")

	run := func(name string, cores int, early bool) error {
		tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 16})
		defer tb.Close()
		mgr := tb.NewManager(nil)
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "md", Resource: "local://localhost", Cores: cores,
		}); err != nil {
			return err
		}
		totalOps := 0
		var opsMu sync.Mutex
		wallStart := time.Now()
		units := make([]*core.ComputeUnit, 0, pairs)
		for i := 0; i < pairs; i++ {
			a, b := frames[i], frames[i+1]
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: fmt.Sprintf("hd-%d", i),
				Run: func(ctx context.Context, tc core.TaskContext) error {
					// The Hausdorff scans are pure CPU over shared read-only
					// frames: run them as a parallel compute phase so the
					// scaled-out variants use real cores. Only the ops
					// accumulation — shared mutation — happens back on the
					// token, under a mutex so its safety does not rest on
					// the token alone.
					var ops int
					if !tc.Compute(ctx, func() {
						if early {
							_ = mdanalysis.HausdorffEarlyBreak(a, b)
						} else {
							_ = mdanalysis.HausdorffNaive(a, b)
						}
						ops = mdanalysis.DistanceOps(a, b, early)
					}) {
						return ctx.Err()
					}
					opsMu.Lock()
					totalOps += ops
					opsMu.Unlock()
					return nil
				},
			})
			if err != nil {
				return err
			}
			units = append(units, u)
		}
		for _, u := range units {
			if s, err := u.Wait(ctx); s != core.UnitDone {
				return fmt.Errorf("unit %v: %w", s, err)
			}
		}
		t.AddRow(name, cores, fmt.Sprintf("%.1f", float64(time.Since(wallStart).Microseconds())/1000), totalOps)
		return nil
	}
	if err := run("naive O(n·m)", 1, false); err != nil {
		return nil, err
	}
	if err := run("naive O(n·m), scaled out", 8, false); err != nil {
		return nil, err
	}
	if err := run("early-break", 1, true); err != nil {
		return nil, err
	}
	if err := run("early-break, scaled out", 8, true); err != nil {
		return nil, err
	}
	return t, nil
}

// EnKFAdaptive reproduces the autonomic ensemble case study [50] (E12):
// per-cycle ensemble sizes under adaptive control, showing runtime task
// creation (R3) with a bounded filter error.
func EnKFAdaptive() (*metrics.Table, error) {
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 10, Seed: 17})
	defer tb.Close()
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "enkf", Resource: "local://localhost", Cores: 32, Walltime: 2 * time.Hour,
	}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := enkf.Run(ctx, mgr, enkf.Config{
		StateDim: 3, InitialEnsemble: 8, MinEnsemble: 4, MaxEnsemble: 32,
		Cycles: 8, ForecastTime: dist.Constant(10),
		SpreadTarget: 0.15, Adaptive: true, Stream: tb.Root.Named("app/enkf"),
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("E12 — adaptive EnKF (runtime task creation; %d resizes, final ensemble %d)",
			res.Resizes, res.FinalEnsemble),
		"cycle", "members", "spread", "rmse", "cycle_time")
	for _, c := range res.Cycles {
		t.AddRow(c.Cycle, c.Members,
			fmt.Sprintf("%.3f", c.Spread),
			fmt.Sprintf("%.3f", c.RMSE),
			metrics.FormatDuration(c.Duration))
	}
	return t, nil
}
