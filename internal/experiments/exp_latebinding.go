package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/perfmodel"
	"gopilot/internal/saga"
)

// LateBinding reproduces the pilot-abstraction's headline comparison (E9,
// §IV.A): running N tasks as individual batch jobs (each paying its own
// queue wait) versus one pilot that pays a single queue wait and
// late-binds tasks onto it. DES-model predictions accompany both
// measurements. Shape: direct submission's makespan is governed by the
// *maximum* of N queue waits, the pilot's by one wait plus packed
// execution; the pilot wins increasingly with N.
func LateBinding() (*metrics.Table, error) {
	const (
		taskSeconds = 60
		pilotCores  = 32
		queueMean   = 600
		queueCV     = 1.0
	)
	task := time.Duration(taskSeconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		fmt.Sprintf("E9 — direct submission vs pilot (task=%ds, queue wait lognormal mean %ds)", taskSeconds, queueMean),
		"tasks", "direct_measured", "direct_model", "pilot_measured", "pilot_model", "pilot_speedup")

	for _, n := range []int{16, 64, 256} {
		// ---- direct: one batch job per task on the HPC simulator ----------
		tb := NewTestbed(TestbedConfig{QueueWaitMean: queueMean, QueueWaitCV: queueCV, Seed: int64(100 + n)})
		hpcSvc, err := tb.Registry.Lookup("hpc://stampede")
		if err != nil {
			tb.Close()
			return nil, err
		}
		start := tb.Clock.Now()
		jobs := make([]saga.Job, 0, n)
		for i := 0; i < n; i++ {
			j, err := hpcSvc.Submit(saga.Description{
				Name:       fmt.Sprintf("direct-%d", i),
				TotalCores: 1,
				Walltime:   time.Hour,
				Payload: func(ctx context.Context, _ infra.Allocation) error {
					if !tb.Clock.Sleep(ctx, task) {
						return ctx.Err()
					}
					return nil
				},
			})
			if err != nil {
				tb.Close()
				return nil, err
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if s, err := j.Wait(ctx); s != saga.Done {
				tb.Close()
				return nil, fmt.Errorf("direct job %v: %w", s, err)
			}
		}
		directMeasured := tb.Clock.Now().Sub(start)
		tb.Close()

		// ---- pilot: one placeholder, late-bound tasks ----------------------
		tb2 := NewTestbed(TestbedConfig{QueueWaitMean: queueMean, QueueWaitCV: queueCV, Seed: int64(200 + n)})
		mgr := tb2.NewManager(nil)
		start2 := tb2.Clock.Now()
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "lb", Resource: "hpc://stampede", Cores: pilotCores, Walltime: 6 * time.Hour,
		}); err != nil {
			tb2.Close()
			return nil, err
		}
		units := make([]*core.ComputeUnit, 0, n)
		for i := 0; i < n; i++ {
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: fmt.Sprintf("lb-%d", i),
				Run: func(ctx context.Context, tc core.TaskContext) error {
					if !tc.Sleep(ctx, task) {
						return ctx.Err()
					}
					return nil
				},
			})
			if err != nil {
				tb2.Close()
				return nil, err
			}
			units = append(units, u)
		}
		for _, u := range units {
			if s, err := u.Wait(ctx); s != core.UnitDone {
				tb2.Close()
				return nil, fmt.Errorf("pilot unit %v: %w", s, err)
			}
		}
		pilotMeasured := tb2.Clock.Now().Sub(start2)
		tb2.Close()

		// ---- models --------------------------------------------------------
		// The cluster runs our jobs plus nothing else, so the slot limit for
		// direct submission is effectively the machine size.
		directModel := perfmodel.DirectSubmissionSim(n, 64*16,
			task, dist.LogNormalFrom(tb.Root.Named("perfmodel/direct-queue"), queueMean, queueCV))
		pilotModel := perfmodel.PilotSubmissionSim(n, pilotCores,
			task, dist.LogNormalFrom(tb2.Root.Named("perfmodel/pilot-queue"), queueMean, queueCV), 50*time.Millisecond)

		t.AddRow(n,
			metrics.FormatDuration(directMeasured),
			metrics.FormatDuration(directModel),
			metrics.FormatDuration(pilotMeasured),
			metrics.FormatDuration(pilotModel),
			fmt.Sprintf("%.2f", metrics.Speedup(directMeasured, pilotMeasured)))
	}
	return t, nil
}

// DynamicScaling demonstrates R3 (dynamism): a workload outgrows its HPC
// pilot, and the manager bursts to cloud resources at runtime — the BigJob
// cloud extension case study [63]. The table contrasts time-to-completion
// with and without the burst.
func DynamicScaling() (*metrics.Table, error) {
	const n = 64
	task := 120 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		"E9b — runtime cloud bursting (64 × 2min tasks, 8-core HPC pilot)",
		"strategy", "makespan", "hpc_tasks", "cloud_tasks", "cloud_cost")

	run := func(burst bool) error {
		tb := NewTestbed(TestbedConfig{QueueWaitMean: 30, Seed: 13})
		defer tb.Close()
		mgr := tb.NewManager(nil)
		start := tb.Clock.Now()
		hpcPilot, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "small-hpc", Resource: "hpc://stampede", Cores: 8, Walltime: 6 * time.Hour,
		})
		if err != nil {
			return err
		}
		units := make([]*core.ComputeUnit, 0, n)
		for i := 0; i < n; i++ {
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: fmt.Sprintf("burst-%d", i),
				Run: func(ctx context.Context, tc core.TaskContext) error {
					if !tc.Sleep(ctx, task) {
						return ctx.Err()
					}
					return nil
				},
			})
			if err != nil {
				return err
			}
			units = append(units, u)
		}
		var cloudPilot *core.Pilot
		if burst {
			// The application notices the deep queue and requests cloud
			// resources at runtime.
			cloudPilot, err = mgr.SubmitPilot(core.PilotDescription{
				Name: "burst-cloud", Resource: "cloud://ec2", Cores: 24, Walltime: 6 * time.Hour,
				Attributes: map[string]string{"vm_type": "c5.2xlarge"},
			})
			if err != nil {
				return err
			}
		}
		for _, u := range units {
			if s, err := u.Wait(ctx); s != core.UnitDone {
				return fmt.Errorf("unit %v: %w", s, err)
			}
		}
		makespan := tb.Clock.Now().Sub(start)
		cloudTasks := 0
		if cloudPilot != nil {
			cloudTasks = cloudPilot.UnitsCompleted()
		}
		strategy := "HPC pilot only"
		if burst {
			strategy = "HPC + cloud burst"
		}
		t.AddRow(strategy,
			metrics.FormatDuration(makespan),
			hpcPilot.UnitsCompleted(),
			cloudTasks,
			fmt.Sprintf("%.4f", tb.Cloud.Cost()))
		return nil
	}
	if err := run(false); err != nil {
		return nil, err
	}
	if err := run(true); err != nil {
		return nil, err
	}
	return t, nil
}
