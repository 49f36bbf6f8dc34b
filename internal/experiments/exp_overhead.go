package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/metrics"
)

// pilotOverhead reproduces Table II's "pilot overhead" characterization
// (Eval 3) for Pilot-Job across infrastructures: pilot startup time
// (submission → agent running) and the manager's per-task overhead
// measured with zero-length tasks — on HPC, HTC, cloud and the local
// reference backend.
func pilotOverhead(seed int64, s Size) (*metrics.Table, error) {
	tasks := s.pick(32, 64, 128)
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 60, Seed: seed})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3) — pilot startup and task overhead (%d no-op tasks)", tasks),
		"backend", "pilot_startup", "task_throughput_per_s", "per_task_overhead_ms", "mean_task_wait")

	backends := []struct {
		name, url string
		cores     int
	}{
		{"local (reference)", "local://localhost", 32},
		{"HPC (stampede)", "hpc://stampede", 32},
		{"HTC (osg)", "htc://osg", 32},
		{"cloud (ec2)", "cloud://ec2", 32},
		{"YARN", "yarn://yarn", 32},
	}
	for _, b := range backends {
		mgr := tb.NewManager(nil)
		p, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "ovh", Resource: b.url, Cores: b.cores, Walltime: 2 * time.Hour,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		// Wait for the agent before timing tasks, so startup and task
		// overhead are separated (the decomposition the paper's overhead
		// analysis makes).
		waitCtx, waitCancel := context.WithTimeout(ctx, 4*time.Minute)
		err = p.WaitRunning(waitCtx)
		waitCancel()
		if err != nil {
			return nil, fmt.Errorf("%s: pilot never started: %w", b.name, err)
		}

		start := tb.Clock.Now()
		units := make([]*core.ComputeUnit, 0, tasks)
		for i := 0; i < tasks; i++ {
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: fmt.Sprintf("noop-%d", i),
				Run:  func(context.Context, core.TaskContext) error { return nil },
			})
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		for _, u := range units {
			if s, err := u.Wait(ctx); s != core.UnitDone {
				return nil, fmt.Errorf("%s: unit %v: %w", b.name, s, err)
			}
		}
		makespan := tb.Clock.Now().Sub(start)
		wait, _, _ := mgr.UnitMetrics()
		throughput := float64(tasks) / makespan.Seconds()
		perTaskMs := makespan.Seconds() / float64(tasks) * 1000
		t.AddRow(b.name,
			metrics.FormatDuration(p.StartupTime()),
			fmt.Sprintf("%.0f", throughput),
			fmt.Sprintf("%.1f", perTaskMs),
			fmt.Sprintf("%.2fs", wait.Mean))
		p.Shutdown()
	}
	return t, nil
}
