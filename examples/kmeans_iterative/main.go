// Iterative K-Means under Pilot-Data (re-read every pass) and Pilot-Memory
// (cached working set) — Table I's "Iterative" scenario and the Pilot-
// Memory case study [68].
//
//	go run ./examples/kmeans_iterative
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gopilot/internal/apps/kmeans"
	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/memory"
	"gopilot/internal/metrics"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The dataset is shared input across both modes' testbeds; it hangs
	// off the example's own root.
	dataset := kmeans.Generate(8000, 5, 3, 1.0, dist.NewStream(42).Named("dataset"))
	t := metrics.NewTable("iterative K-Means: Pilot-Data vs Pilot-Memory",
		"mode", "iterations", "iter1", "later_mean", "total", "inertia")

	for _, mode := range []kmeans.Mode{kmeans.ModeData, kmeans.ModeMemory} {
		tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 10, Seed: 8})
		mgr := tb.NewManager(nil)
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "kmeans", Resource: "local://localhost", Cores: 8, Walltime: 6 * time.Hour,
		}); err != nil {
			log.Fatal(err)
		}
		cfg := kmeans.Config{
			K: 5, MaxIter: 6, Tol: 0, Partitions: 8,
			Mode: mode, Site: "localhost",
			BytesPerPoint: 1 << 17, // ≈128 MB partitions in the transfer model
			Stream:        tb.Root.Named("app/kmeans"),
		}
		if mode == kmeans.ModeMemory {
			cfg.Cache = memory.NewCache(memory.Config{
				Name: "pilot-memory", CapacityBytes: 8 << 30, Clock: tb.Clock,
			})
		}
		ids, err := kmeans.Stage(ctx, tb.Data, dataset, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := kmeans.Run(ctx, mgr, dataset, ids, cfg)
		if err != nil {
			log.Fatal(err)
		}
		later := metrics.Mean(metrics.Durations(res.IterTimes[1:]))
		t.AddRow(mode.String(), res.Iters,
			metrics.FormatDuration(res.IterTimes[0]),
			fmt.Sprintf("%.2fs", later),
			metrics.FormatDuration(res.Elapsed),
			fmt.Sprintf("%.0f", res.Inertia))
		if mode == kmeans.ModeMemory {
			fmt.Printf("cache: hit rate %.0f%%, %d entries, %.0f MB resident\n",
				cfg.Cache.HitRate()*100, cfg.Cache.Len(), float64(cfg.Cache.Resident())/1e6)
		}
		tb.Close()
	}
	fmt.Print(t)
	fmt.Println("(identical inertia: caching changes the data path, not the math)")
}
