// Command experiments regenerates every table- and figure-shaped result of
// the paper's evaluation (DESIGN.md index E1–E13) on the simulated
// testbed, printing the same rows the paper reports.
//
// Usage:
//
//	experiments [-run name] [-csv dir] [-list]
//
// With no -run flag every experiment executes in order. Everything runs on
// the virtual-time executor: zero wall time per modeled sleep,
// bit-reproducible from the seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
)

type experiment struct {
	name string
	desc string
	run  func() (*metrics.Table, []string, error)
}

func table(f func() (*metrics.Table, error)) func() (*metrics.Table, []string, error) {
	return func() (*metrics.Table, []string, error) {
		t, err := f()
		return t, nil, err
	}
}

func main() {
	runName := flag.String("run", "", "run only the named experiment (see -list)")
	list := flag.Bool("list", false, "list experiments and exit")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	flag.Parse()

	all := []experiment{
		{"table1", "Table I — five application scenarios on one abstraction (E1)", table(experiments.Table1)},
		{"overhead", "Table II — pilot startup & task overhead per backend (E2)", table(func() (*metrics.Table, error) {
			return experiments.PilotOverhead(128)
		})},
		{"rex", "Table II — replica-exchange strong scaling + analytical model (E3)", table(experiments.RexScaling)},
		{"pilotdata", "Table II — Pilot-Data data-aware vs data-oblivious (E4)", table(experiments.PilotData)},
		{"mapreduce", "Table II — Pilot-Hadoop wordcount strong scaling (E5)", table(experiments.MapReduceScaling)},
		{"memory", "Table II — Pilot-Memory vs Pilot-Data for iterative K-Means (E6)", table(experiments.PilotMemory)},
		{"streaming", "Table II — Pilot-Streaming throughput & latency (E7)", table(func() (*metrics.Table, error) {
			return experiments.Streaming(1500)
		})},
		{"serverless", "Table II — cluster vs serverless stream processing (E7b)", table(func() (*metrics.Table, error) {
			return experiments.ServerlessStreaming(1000)
		})},
		{"model", "Table II — statistical throughput model, fit + holdout (E8)", func() (*metrics.Table, []string, error) {
			return experiments.ThroughputModel(800)
		}},
		{"latebinding", "E9 — direct submission vs pilot under queue waits", table(experiments.LateBinding)},
		{"dynamic", "E9b — runtime cloud bursting (R3 dynamism)", table(experiments.DynamicScaling)},
		{"fig5", "Fig. 5 — automated build-assess-refine loop", func() (*metrics.Table, []string, error) {
			return experiments.Fig5Loop(600)
		}},
		{"ablation", "E11 — algorithm optimization vs scale-out (Hausdorff)", table(experiments.AblationAlgorithm)},
		{"enkf", "E12 — adaptive EnKF ensemble (runtime task creation)", table(experiments.EnKFAdaptive)},
		{"million", "E13 — million-message streaming data plane (consumer group, backpressure)", table(func() (*metrics.Table, error) {
			return experiments.MillionMessages(1_000_000)
		})},
	}

	if *list {
		for _, e := range all {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}

	names := map[string]bool{}
	for _, e := range all {
		names[e.name] = true
	}
	if *runName != "" && !names[*runName] {
		keys := make([]string, 0, len(names))
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", *runName, strings.Join(keys, ", "))
		os.Exit(2)
	}

	failures := 0
	for _, e := range all {
		if *runName != "" && e.name != *runName {
			continue
		}
		fmt.Printf("### %s: %s\n", e.name, e.desc)
		start := time.Now()
		tbl, notes, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			failures++
			continue
		}
		tbl.Render(os.Stdout)
		for _, n := range notes {
			fmt.Println("  " + n)
		}
		fmt.Printf("  [%s wall]\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "csv for %s: %v\n", e.name, err)
				failures++
			}
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// writeCSV persists one experiment's table for downstream analysis — the
// Mini-App framework's reproducibility requirement applied to the
// experiment driver itself.
func writeCSV(dir, name string, tbl *metrics.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
