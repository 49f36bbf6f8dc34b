package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/apps/kmeans"
	"gopilot/internal/apps/wordcount"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/mapreduce"
	"gopilot/internal/memory"
	"gopilot/internal/metrics"
)

// MapReduceScaling reproduces Table II's Pilot-Hadoop evaluation (E5):
// wordcount runtime and strong scaling on pilot-managed YARN containers.
// Shape: near-linear speedup while map tasks outnumber cores, flattening
// at the task-count ceiling.
func MapReduceScaling() (*metrics.Table, error) {
	const splits = 16
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3) — Pilot-Hadoop wordcount strong scaling (%d splits)", splits),
		"cores", "makespan", "map_phase", "reduce_phase", "speedup")

	var base time.Duration
	for _, cores := range []int{2, 4, 8, 16} {
		tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 5})
		mgr := tb.NewManager(nil)
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "mr", Resource: "yarn://yarn", Cores: cores, Walltime: 2 * time.Hour,
		}); err != nil {
			tb.Close()
			return nil, err
		}
		corpus := wordcount.GenerateCorpus(splits, 3000, 500, tb.Root.Named("corpus"))
		ids := make([]string, splits)
		for i, s := range corpus {
			ids[i] = fmt.Sprintf("mr-split-%d", i)
			if err := tb.Data.Put(ctx, data.Unit{
				ID: ids[i], Content: []byte(s), LogicalSize: 128e6, Site: "yarn",
			}); err != nil {
				tb.Close()
				return nil, err
			}
		}
		// Production-scale per-task compute: 30s per 128MB map split, 20s
		// per reduce partition.
		job := wordcount.Config("mr", ids, 4)
		job.MapCost = 30 * time.Second
		job.ReduceCost = 20 * time.Second
		res, err := mapreduce.Run(ctx, mgr, job)
		if err != nil {
			tb.Close()
			return nil, err
		}
		if base == 0 {
			base = res.Elapsed
		}
		t.AddRow(cores,
			metrics.FormatDuration(res.Elapsed),
			metrics.FormatDuration(res.MapElapsed),
			metrics.FormatDuration(res.ReduceElapsed),
			fmt.Sprintf("%.2f", metrics.Speedup(base, res.Elapsed)))
		tb.Close()
	}
	return t, nil
}

// PilotMemory reproduces Table II's Pilot-Memory evaluation (E6): K-Means
// per-iteration time with partitions re-read from storage every iteration
// versus cached in Pilot-Memory. Shape: iteration 1 is comparable (cold
// cache pays the same read); later iterations collapse to compute time in
// memory mode, and the advantage grows with data size.
func PilotMemory() (*metrics.Table, error) {
	const (
		points     = 4000
		partitions = 8
		iterations = 5
	)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3) — Pilot-Memory vs Pilot-Data for iterative K-Means (%d iterations)", iterations),
		"partition_size", "mode", "iter1", "later_iters_mean", "total", "speedup_later")

	for _, bytesPerPoint := range []int64{1 << 16, 1 << 18} {
		var diskLater float64
		for _, mode := range []kmeans.Mode{kmeans.ModeData, kmeans.ModeMemory} {
			tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 7})
			mgr := tb.NewManager(nil)
			if _, err := mgr.SubmitPilot(core.PilotDescription{
				Name: "km", Resource: "local://localhost", Cores: partitions, Walltime: 2 * time.Hour,
			}); err != nil {
				tb.Close()
				return nil, err
			}
			dataset := kmeans.Generate(points, 4, 3, 1.0, tb.Root.Named("dataset"))
			cfg := kmeans.Config{
				K: 4, MaxIter: iterations, Tol: 0, Partitions: partitions,
				Mode: mode, Site: "localhost", BytesPerPoint: bytesPerPoint, Stream: tb.Root.Named("app/kmeans"),
			}
			if mode == kmeans.ModeMemory {
				cfg.Cache = memory.NewCache(memory.Config{
					CapacityBytes: 16 << 30, Bandwidth: 10e9, Clock: tb.Clock,
				})
			}
			ids, err := kmeans.Stage(ctx, tb.Data, dataset, cfg)
			if err != nil {
				tb.Close()
				return nil, err
			}
			res, err := kmeans.Run(ctx, mgr, dataset, ids, cfg)
			if err != nil {
				tb.Close()
				return nil, err
			}
			later := metrics.Mean(metrics.Durations(res.IterTimes[1:]))
			if mode == kmeans.ModeData {
				diskLater = later
			}
			speedup := "1.00"
			if mode == kmeans.ModeMemory && later > 0 {
				speedup = fmt.Sprintf("%.2f", diskLater/later)
			}
			partitionMB := float64(points) / float64(partitions) * float64(bytesPerPoint) / 1e6
			t.AddRow(
				fmt.Sprintf("%.0fMB", partitionMB),
				mode.String(),
				metrics.FormatDuration(res.IterTimes[0]),
				fmt.Sprintf("%.2fs", later),
				metrics.FormatDuration(res.Elapsed),
				speedup)
			tb.Close()
		}
	}
	return t, nil
}
