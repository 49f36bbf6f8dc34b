// Replica-exchange MD on a pilot, with the analytical performance model —
// the paper's founding case study ([48], [72]; Table I "Task-Parallel").
//
//	go run ./examples/replica_exchange
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gopilot/internal/apps/rexchange"
	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
	"gopilot/internal/perfmodel"
)

func main() {
	tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 60, Seed: 7})
	defer tb.Close()
	mgr := tb.NewManager(nil)

	const (
		replicas = 16
		cycles   = 4
		cores    = 16
	)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "rex-pilot", Resource: "hpc://stampede", Cores: cores, Walltime: 12 * time.Hour,
	}); err != nil {
		log.Fatal(err)
	}

	res, err := rexchange.Run(context.Background(), mgr, rexchange.Config{
		Replicas: replicas, Cycles: cycles,
		MDTime:       dist.NormalFrom(tb.Root.Named("app/rexchange/md-time"), 60, 5), // ~1 minute MD phases
		ExchangeTime: 5 * time.Second,
		Adaptive:     true, TargetAcceptance: 0.3,
		Stream: tb.Root.Named("app/rexchange"),
	})
	if err != nil {
		log.Fatal(err)
	}

	t := metrics.NewTable("replica-exchange cycles", "cycle", "modeled_time")
	for i, ct := range res.CycleTimes {
		t.AddRow(i, metrics.FormatDuration(ct))
	}
	fmt.Print(t)
	fmt.Printf("exchange acceptance: %.0f%% (%d/%d), ladder retunes: %d\n",
		res.AcceptanceRatio()*100, res.ExchangesAccepted, res.ExchangesAttempted, res.LadderRetunes)

	model := perfmodel.RexModel{
		Replicas: replicas, CoresPerReplica: 1, PilotCores: cores,
		MD: time.Minute, Exchange: 5 * time.Second,
	}
	fmt.Printf("measured total:  %s\n", metrics.FormatDuration(res.Elapsed))
	fmt.Printf("analytical model: %s (cycle %s, efficiency %.0f%%)\n",
		metrics.FormatDuration(model.Total(cycles)),
		metrics.FormatDuration(model.CycleTime()),
		model.Efficiency(cycles)*100)
}
