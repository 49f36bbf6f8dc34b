// Command pilot runs a synthetic bag-of-tasks workload through the
// Pilot-API against a chosen simulated infrastructure — a minimal CLI for
// exploring the abstraction's behaviour interactively.
//
// Usage:
//
//	pilot [-backend hpc|htc|cloud|local] [-tasks N] [-cores N]
//	      [-task-seconds S] [-task-cv CV] [-queue-seconds S] [-seed N]
//
// The tool prints the pilot's startup time, per-task statistics and the
// workload makespan in modeled time.
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
	"gopilot/internal/metrics"
	"gopilot/internal/miniapp"
)

func main() {
	backend := flag.String("backend", "hpc", "infrastructure: local, hpc, htc, cloud, yarn")
	tasks := flag.Int("tasks", 64, "number of tasks")
	cores := flag.Int("cores", 16, "pilot size in cores")
	taskSeconds := flag.Float64("task-seconds", 30, "mean task service time (modeled seconds)")
	taskCV := flag.Float64("task-cv", 0.2, "task time coefficient of variation")
	queueSeconds := flag.Float64("queue-seconds", 120, "mean batch queue wait (modeled seconds)")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	urls := map[string]string{
		"local": "local://localhost",
		"hpc":   "hpc://stampede",
		"htc":   "htc://osg",
		"cloud": "cloud://ec2",
		"yarn":  "yarn://yarn",
	}
	url, ok := urls[*backend]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
		os.Exit(2)
	}

	tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: *queueSeconds, Seed: *seed})
	defer tb.Close()
	mgr := tb.NewManager(nil)

	fmt.Printf("submitting pilot (%d cores) to %s ...\n", *cores, url)
	p, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "cli", Resource: url, Cores: *cores, Walltime: 24 * time.Hour,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	w := miniapp.TaskWorkload{
		Name:     "cli",
		Count:    *tasks,
		Duration: dist.NormalFrom(tb.Root.Named("miniapp/task-duration"), *taskSeconds, *taskSeconds**taskCV),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	makespan, err := w.SubmitAndWait(ctx, mgr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wait, run, turnaround := mgr.UnitMetrics()

	t := metrics.NewTable("workload summary", "metric", "value")
	t.AddRow("backend", url)
	t.AddRow("pilot startup (queue wait + dispatch)", metrics.FormatDuration(p.StartupTime()))
	t.AddRow("tasks", *tasks)
	t.AddRow("makespan (modeled)", metrics.FormatDuration(makespan))
	t.AddRow("task throughput", fmt.Sprintf("%.2f tasks/s", float64(*tasks)/makespan.Seconds()))
	t.AddRow("mean task wait", fmt.Sprintf("%.2fs", wait.Mean))
	t.AddRow("mean task runtime", fmt.Sprintf("%.2fs", run.Mean))
	t.AddRow("p95 turnaround", fmt.Sprintf("%.2fs", turnaround.P95))
	t.AddRow("units completed by pilot", p.UnitsCompleted())
	t.Render(os.Stdout)
}
