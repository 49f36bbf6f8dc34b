// Runtime cloud bursting (R3 dynamism, BigJob's cloud extension [63]):
// a workload lands on a small HPC pilot; the application monitors queue
// depth and, when it stays deep, acquires a cloud pilot *at runtime*.
// Both pilots drain the same late-binding queue.
//
//	go run ./examples/dynamic_scaling
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

func main() {
	tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 30, Seed: 9})
	defer tb.Close()
	mgr := tb.NewManager(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	hpcPilot, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "small-hpc", Resource: "hpc://stampede", Cores: 8, Walltime: 6 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := tb.Clock.Now()
	const n = 48
	task := 90 * time.Second
	for i := 0; i < n; i++ {
		if _, err := mgr.SubmitUnit(core.UnitDescription{
			Name: fmt.Sprintf("work-%02d", i),
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !tc.Sleep(ctx, task) {
					return ctx.Err()
				}
				return nil
			},
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Application-level autonomic policy: if the queue is still deep once
	// the HPC pilot is up, burst to the cloud. The policy is a participant
	// of the testbed clock and polls in modeled time.
	var cloudPilot *core.Pilot
	decided := vclock.NewEvent(tb.Clock)
	tb.Go(func() {
		defer decided.Fire()
		for tb.Clock.Sleep(ctx, 5*time.Second) {
			if mgr.QueueDepth() > 16 && hpcPilot.State() == core.PilotRunning {
				fmt.Printf("[autonomic] queue depth %d with 8 HPC cores — bursting to cloud\n", mgr.QueueDepth())
				p, err := mgr.SubmitPilot(core.PilotDescription{
					Name: "cloud-burst", Resource: "cloud://ec2", Cores: 24, Walltime: 6 * time.Hour,
					Attributes: map[string]string{"vm_type": "c5.2xlarge"},
				})
				if err != nil {
					log.Printf("burst failed: %v", err)
					return
				}
				cloudPilot = p
				return
			}
			if mgr.QueueDepth() == 0 {
				return
			}
		}
	})

	if err := mgr.WaitAll(ctx); err != nil {
		log.Fatal(err)
	}
	decided.Wait(ctx)
	makespan := tb.Clock.Now().Sub(start)

	t := metrics.NewTable("dynamic scaling summary", "metric", "value")
	t.AddRow("tasks", n)
	t.AddRow("makespan (modeled)", metrics.FormatDuration(makespan))
	t.AddRow("HPC pilot completed", hpcPilot.UnitsCompleted())
	if cloudPilot != nil {
		t.AddRow("cloud pilot completed", cloudPilot.UnitsCompleted())
		t.AddRow("cloud pilot startup (VM boot)", metrics.FormatDuration(cloudPilot.StartupTime()))
	}
	t.AddRow("cloud cost (units)", fmt.Sprintf("%.4f", tb.Cloud.Cost()))
	t.Render(os.Stdout)
}
