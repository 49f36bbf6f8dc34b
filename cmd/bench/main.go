// Command bench is the repository's benchmark: five long-run workloads,
// six end-to-end metrics and an outside-in ladder of per-layer metrics
// (BENCHMARK.json at the repository root names them; README.md in this
// directory defines them).
//
// gopilot is a deterministic virtual-time simulator that moves real
// bytes, so every number says which clock it is read on: host time (what
// the simulator costs us; jitters with the machine) or sim time (what
// the modeled pilot system would take; bit-identical per seed). The
// harness measures from outside: it calls the exported functions the
// exhibits call, wraps the interfaces it is handed (streaming.Bus,
// core.Scheduler, unit Run, Mapper/Reducer, the ClusterConfig hooks, the
// vclock recorder) and times direct calls into each layer.
//
// Usage:
//
//	go run ./cmd/bench -workload <name|all> -seed N [-seconds S] [-trace 0|1|FILE] [-ladder] [-selfcheck]
//
// One run of one workload is set-up, one untimed warm-up repetition, then
// timed repetitions of a fixed amount of work, each on a fresh testbed with
// the same seed, on one thread (GOMAXPROCS=1), the whole run inside
// -seconds. The host this runs on drifts, so a fixed calibration kernel is
// timed beside every repetition (calib.go; this binary started again with
// -calibrate) and setup_s and throughput_ops_s are divided by the
// host-speed index it reads. The human-readable table goes first; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics — every end-to-end metric with -trace 0,
// every per-layer metric with -trace 1. Harness errors exit non-zero
// without a result line.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "experiment root seed: same seed, same inputs")
		seconds   = flag.Float64("seconds", 10, "timed budget per run: fixed-work repetitions repeat until it is spent")
		trace     = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from one extra traced repetition (spans to .bench_out/); any other value: as 1, spans to that file")
		ladder    = flag.Bool("ladder", false, "time each layer's exported functions in isolation and print every ladder metric")
		selfcheck = flag.Bool("selfcheck", false, "run the chosen workloads as two independent sets and compare every end-to-end metric with its bound")
		smoke     = flag.Bool("smoke", false, "1/100 sizes (what bench_test.go runs)")
		calibrate = flag.Bool("calibrate", false, "serve host-speed index readings, one per line of standard input (the harness starts itself this way)")
	)
	flag.Parse()
	// One thread: the executor hands a single token from goroutine to
	// goroutine, and with more every handoff is a futex wake across vCPUs,
	// which on a shared two-core guest is both slower and noisier (README
	// "Run shape"). A traced run prices the other choice as
	// runtime.procs1_slowdown.
	runtime.GOMAXPROCS(1)
	if *calibrate {
		if err := serveCalibration(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fatal(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}

	if *ladder {
		printEnvironment(os.Stdout)
		printLadder(os.Stdout, runLadder(*seed, fullLadder))
		return
	}
	var chosen []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			chosen = append(chosen, &workloads[i])
		}
	} else if w := workloadByName(*workload); w != nil {
		chosen = []*workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames(), ", ")))
	}

	// Several runs in one invocation each get a process of their own, so
	// peak RSS and GC state belong to one workload.
	if *selfcheck {
		if err := selfCheck(os.Stdout, chosen, *seed, *seconds, *smoke); err != nil {
			fatal(err)
		}
		return
	}
	if len(chosen) > 1 {
		for _, w := range chosen {
			if _, err := runChild(os.Stdout, w.Name, *seed, *seconds, *trace, *smoke); err != nil {
				fatal(err)
			}
		}
		return
	}

	cfg := runConfig{Seed: *seed, Seconds: *seconds, MinReps: 3, Sizes: fullSizes, Trace: *trace != "0", Ladder: tracedLadder}
	if *smoke {
		cfg.Sizes, cfg.Ladder = smokeSizes, smokeLadder
	}
	w := chosen[0]
	calib, err := startCalibrator()
	if err != nil {
		fatal(err)
	}
	cfg.Calib = calib
	res, err := runWorkload(w, cfg)
	calib.stop()
	if err != nil {
		fatal(err)
	}
	if cfg.Trace {
		path := *trace
		if path == "1" {
			path = filepath.Join(".bench_out", "spans-"+w.Name+".json")
		}
		if err := writeSpans(path, w.Name, res.Spans); err != nil {
			fatal(fmt.Errorf("writing spans: %w", err))
		}
		fmt.Printf("spans: %d written to %s\n", len(res.Spans), path)
	}
	printEnvironment(os.Stdout)
	printResult(os.Stdout, w, res, cfg.Trace)
	if err := printResultLine(os.Stdout, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// printEnvironment records what the numbers were taken on.
func printEnvironment(out io.Writer) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(out, "env: %s %s/%s GOMAXPROCS=%d NumCPU=%d rev=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), rev)
}

// printResult prints every metric of the run by name with its unit,
// direction, clock and (end-to-end) bound.
func printResult(out io.Writer, w *workloadDef, res *result, traced bool) {
	fmt.Fprintf(out, "workload %s seed %d: op = %s\n", w.Name, res.Seed, w.Op)
	fmt.Fprintf(out, "  reps n=%d  wall median %.4fs (min %.4f max %.4f)  setup median %.4fs (min %.4f max %.4f)  digest %016x\n",
		res.Wall.N, res.Wall.Median, res.Wall.Min, res.Wall.Max, res.Setup.Median, res.Setup.Min, res.Setup.Max, res.Digest)
	fmt.Fprintf(out, "  rep walls (s): %.4f\n", res.Walls)
	fmt.Fprintf(out, "  host-speed index per rep: %.3f  median %.4f (1 = reference host; setup_s and throughput_ops_s are divided by it)\n", res.Indexes, res.Index.Median)
	fmt.Fprintf(out, "  calibration parts per rep (chase, churn; time ÷ reference): %.3f\n", res.Hosts)
	fmt.Fprintf(out, "  raw throughput %.6g ops/s  raw setup %.6g s\n", float64(res.Attempted)/res.Wall.Median, res.Setup.Median)
	fmt.Fprintf(out, "  ops_attempted %d  ops_failed %d  failed_ops_frac %g (bound 0 absolute)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		bound := ""
		if !traced {
			bound = fmt.Sprintf("  bound %g%%", m.Bound*100)
		}
		fmt.Fprintf(out, "  %-52s %16.6g %-6s %-6s %-5s%s\n", m.Name, res.Metrics[m.Name], m.Unit, m.Better, m.Clock, bound)
	}
}

func printLadder(out io.Writer, values map[string]float64) {
	fmt.Fprintf(out, "ladder: min of %d × ≥%v per rung\n", fullLadder.Samples, fullLadder.Target)
	for _, m := range perLayer {
		if m.Source == srcLadder {
			fmt.Fprintf(out, "  %-52s %16.6g %-6s %s\n", m.Name, values[m.Name], m.Unit, m.Better)
		}
	}
}

// resultLine is the one JSON object the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(out io.Writer, res *result) error {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			v, ok := res.Metrics[m.Name]
			if !ok {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is not finite: %v", m.Name, v)
			}
			line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// runChild runs one workload in a process of its own, copies its output
// through and returns its parsed result line.
func runChild(out io.Writer, workload string, seed int64, seconds float64, trace string, smoke bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if line.Metrics == nil {
		return nil, errors.New(workload + ": result line has no metrics")
	}
	return &line, nil
}
