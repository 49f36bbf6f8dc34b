// Command miniapp runs a Mini-App framework parameter sweep — the paper's
// automated experiment methodology (§V.C, Fig. 5) — and emits CSV for
// downstream modeling.
//
// Usage:
//
//	miniapp [-kind stream|tasks] [-reps N] [-csv out.csv]
//
// kind=stream sweeps broker partitions × handler cost and records
// throughput/latency; kind=tasks sweeps pilot cores × task count and
// records makespan — the two workload families the paper's Mini-Apps
// cover (compute and streaming).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/miniapp"
)

func main() {
	kind := flag.String("kind", "stream", "sweep kind: stream or tasks")
	reps := flag.Int("reps", 1, "repetitions per configuration")
	csvPath := flag.String("csv", "", "write CSV to this file (default stdout table only)")
	flag.Parse()

	var runner miniapp.Runner
	switch *kind {
	case "stream":
		runner = miniapp.Runner{
			Name:        "stream-sweep",
			Repetitions: *reps,
			Design: miniapp.Design{Factors: []miniapp.Factor{
				{Name: "partitions", Levels: []float64{1, 2, 4, 8}},
				{Name: "handler_ms", Levels: []float64{5, 10, 20}},
			}},
			Run: func(ctx context.Context, cfg map[string]float64, _ int) (map[string]float64, error) {
				tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 5, Seed: 31})
				defer tb.Close()
				parts := int(cfg["partitions"])
				tput, lat, err := experiments.StreamTrial(tb, parts, parts, 600,
					time.Duration(cfg["handler_ms"])*time.Millisecond)
				if err != nil {
					return nil, err
				}
				return map[string]float64{
					"throughput_msg_s": tput,
					"latency_p50_s":    lat.Median,
					"latency_p95_s":    lat.P95,
				}, nil
			},
		}
	case "tasks":
		runner = miniapp.Runner{
			Name:        "task-sweep",
			Repetitions: *reps,
			Design: miniapp.Design{Factors: []miniapp.Factor{
				{Name: "cores", Levels: []float64{4, 8, 16, 32}},
				{Name: "tasks", Levels: []float64{32, 128}},
			}},
			Run: func(ctx context.Context, cfg map[string]float64, rep int) (map[string]float64, error) {
				tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 10, Seed: 32})
				defer tb.Close()
				mgr := tb.NewManager(nil)
				if _, err := mgr.SubmitPilot(core.PilotDescription{
					Name: "sweep", Resource: "local://localhost", Cores: int(cfg["cores"]), Walltime: 6 * time.Hour,
				}); err != nil {
					return nil, err
				}
				w := miniapp.TaskWorkload{
					Name:     "sweep",
					Count:    int(cfg["tasks"]),
					Duration: dist.LogNormalFrom(tb.Root.Named("miniapp/task-duration").SplitLabel(uint64(rep)), 20, 0.3),
				}
				runCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
				defer cancel()
				makespan, err := w.SubmitAndWait(runCtx, mgr)
				if err != nil {
					return nil, err
				}
				return map[string]float64{
					"makespan_s":   makespan.Seconds(),
					"throughput_s": cfg["tasks"] / makespan.Seconds(),
				}, nil
			},
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}

	rs, err := runner.Execute(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rs.Table().Render(os.Stdout)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rs.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
