// Quickstart: the smallest complete gopilot program.
//
// It builds a simulated HPC machine, registers it as a SAGA service,
// starts a pilot (placeholder job), submits compute units into the
// shared queue *before and after* the pilot comes up — late binding — and
// prints per-unit statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/metrics"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

func main() {
	// The virtual clock: modeled sleeps cost no wall time. main drives the
	// simulation, so it joins the executor as a participant.
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()

	// One root seed; every component below gets a named sub-stream.
	root := dist.NewStream(1)

	// A 16-node batch machine with ~2 minutes of queue wait.
	hpcStream := root.Named("infra/hpc/stampede")
	cluster := hpc.New(hpc.Config{
		Name: "stampede", Nodes: 16, CoresPerNode: 8,
		QueueWait: dist.LogNormalFrom(hpcStream.Named("queue-wait"), 120, 0.5),
		Backfill:  true,
		Clock:     clock,
		Stream:    hpcStream,
	})
	defer cluster.Close()

	registry := saga.NewRegistry()
	registry.Register(cluster)

	mgr := core.NewManager(core.Config{Registry: registry, Clock: clock})
	defer mgr.Close()

	// Submit work first: units queue in the manager, not in the batch
	// system — that decoupling is the pilot-abstraction.
	var units []*core.ComputeUnit
	for i := 0; i < 32; i++ {
		i := i
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: fmt.Sprintf("task-%02d", i),
			Run: func(ctx context.Context, tc core.TaskContext) error {
				// 30 modeled seconds of "science".
				if !tc.Sleep(ctx, 30*time.Second) {
					return ctx.Err()
				}
				return nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		units = append(units, u)
	}
	fmt.Printf("queued %d units, queue depth %d\n", len(units), mgr.QueueDepth())

	// One pilot pays one queue wait for all of them.
	pilot, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "demo-pilot", Resource: "hpc://stampede",
		Cores: 16, Walltime: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := mgr.WaitAll(ctx); err != nil {
		log.Fatal(err)
	}

	wait, run, turnaround := mgr.UnitMetrics()
	fmt.Printf("pilot startup (one queue wait): %s\n", metrics.FormatDuration(pilot.StartupTime()))
	fmt.Printf("units done: %d  mean wait %.1fs  mean runtime %.1fs  p95 turnaround %.1fs\n",
		pilot.UnitsCompleted(), wait.Mean, run.Mean, turnaround.P95)
}
