// Command experiments regenerates every table- and figure-shaped result of
// the paper's evaluation on the simulated testbed, printing the same rows
// the paper reports: each entry of experiments.Exhibits at its seed and
// experiments.Full size (DESIGN.md "Experiment index").
//
// Usage:
//
//	experiments [-run name] [-csv dir] [-list] [-cpuprofile file]
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
	"runtime/pprof"
	"time"

	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
)

func main() {
	runName := flag.String("run", "", "run only the named experiment (see -list)")
	list := flag.Bool("list", false, "list experiments and exit")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the exhibits run to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments.Exhibits {
			fmt.Printf("%-12s %s\n", e.Name, e.Title)
		}
		return
	}

	exhibits := experiments.Exhibits
	if *runName != "" {
		e := experiments.Find(*runName)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; see -list\n", *runName)
			os.Exit(2)
		}
		exhibits = []experiments.Exhibit{*e}
	}

	var prof *os.File
	if *cpuProfile != "" {
		var err error
		if prof, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	failures := 0
	for _, e := range exhibits {
		fmt.Printf("### %s: %s\n", e.Name, e.Title)
		start := time.Now()
		tbl, err := e.Run(e.Seed, experiments.Full)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.Name, err)
			failures++
			continue
		}
		tbl.Render(os.Stdout)
		fmt.Printf("  [%s wall]\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.Name, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "csv for %s: %v\n", e.Name, err)
				failures++
			}
		}
	}
	pprof.StopCPUProfile() // a no-op without -cpuprofile
	if prof != nil && prof.Close() != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: closing %s failed\n", *cpuProfile)
		failures++
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
