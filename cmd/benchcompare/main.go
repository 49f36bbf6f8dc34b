// Command benchcompare gates performance regressions: it parses `go test
// -bench` output from stdin, compares each benchmark's ns/op against the
// reference timings in BENCH_baseline.json, and exits non-zero when any
// exhibit regresses more than the threshold.
//
// Usage (see `make bench-compare`):
//
//	go test -bench=. -benchtime=3x -run '^$' . | benchcompare [-baseline BENCH_baseline.json] [-write fresh.json]
//
// A regression must exceed both the relative threshold (-max-regress,
// default 10%) and the absolute floor (-floor, default 25ms) to fail the
// gate: the exhibits are CPU-bound on the virtual clock, so single-digit
// millisecond deltas are scheduler noise, not regressions. Improvements
// are reported but never fail. Benchmarks missing from the baseline (new
// exhibits) are reported as warnings; baseline entries missing from the
// run (renames, partially-crashed suites) fail the gate, so the baseline
// gets regenerated deliberately (see BENCH_baseline.json's "command"
// field).
//
// Since the parallel compute phase landed, exhibit wall times depend on
// core count: the comparison header prints the current GOMAXPROCS/NumCPU
// next to the baseline's recorded parallelism, and a mismatch is called
// out so a "regression" measured on fewer cores than the baseline reads
// as what it is. -write records the run as a fresh baseline-format JSON
// (CI uploads it as a per-PR artifact, making the perf trajectory
// auditable without regenerating the committed baseline).
//
// Besides ns/op, the gate also compares allocs/op (requires -benchmem
// output) for every benchmark listed in the baseline's "allocs_per_op"
// map — the streaming exhibits live there, locking in the segmented
// log's zero-copy win: a change that reintroduces per-message copies
// fails CI even if it is fast enough to slip past the time gate. Allocs
// are near-deterministic, so the relative threshold is shared with ns/op
// but the absolute floor is its own flag (-alloc-floor, default 512/op).
// B/op is gated the same way, by the same function, for the benchmarks in
// "bytes_per_op" (floor 1 MiB/op): a per-message sample slice adds 25 bytes
// a message and no allocation worth counting.
// For the message-count exhibits (BenchmarkStreaming_Million and the
// opt-in TenMillion variant) every report line also derives ns/msg and
// allocs/msg — the units the ROADMAP's raw-speed targets are stated in —
// and the failure summary names each allocs-gate failure with its delta
// percentage so the last lines of a red log identify the regression
// without scrolling back to the FAIL lines.
//
// With -ab it is instead the A/B pair command (ab.go): it exports a parent
// and a revision, runs the unmodified cmd/bench/run.sh (or, with -gobench,
// a go test benchmark) on each in alternating pairs, prints every end-to-end metric's median (q1–q3), the
// pairs won and a verdict — ahead, within noise, worse within bound,
// behind or unresolved —
// and appends one JSON line per run to BENCH_history.jsonl.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type baseline struct {
	Recorded   string             `json:"recorded"`
	Command    string             `json:"command"`
	Go         string             `json:"go,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	GoMaxProcs int                `json:"gomaxprocs,omitempty"`
	NumCPU     int                `json:"num_cpu,omitempty"`
	Clock      string             `json:"clock,omitempty"`
	Note       string             `json:"note,omitempty"`
	NsPerOp    map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp lists the benchmarks whose allocation count is gated
	// (the streaming data-plane exhibits). Benchmarks absent from this
	// map are timed but not alloc-checked.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp does the same for B/op.
	BytesPerOp map[string]float64 `json:"bytes_per_op,omitempty"`
}

// bytesFloor is the absolute B/op growth a byte regression must also exceed.
const bytesFloor = 1 << 20

// msgsPerOp maps the message-count exhibits to the number of messages one
// benchmark op pushes through the data plane, so the report can derive
// ns/msg and allocs/msg — the units the ROADMAP's raw-speed targets and
// the zero-copy budget are stated in — next to the raw per-op figures.
var msgsPerOp = map[string]float64{
	"BenchmarkStreaming_Million":    1_000_000,
	"BenchmarkStreaming_TenMillion": 10_000_000,
}

// perMsg renders " = N ns/msg"-style context for message-count exhibits,
// or "" for everything else.
func perMsg(name string, perOp float64, unit string) string {
	msgs, ok := msgsPerOp[name]
	if !ok {
		return ""
	}
	return fmt.Sprintf(" = %.4g %s/msg", perOp/msgs, unit)
}

// gateColumn checks one -benchmem column (unit "allocs" or "B") for every
// benchmark the baseline lists under it — a regression must exceed both the
// relative threshold and the column's floor — and describes each failure.
func gateColumn(unit string, ref, got map[string]float64, maxRegress, floor float64) []string {
	var fails []string
	for name, r := range ref {
		cur, ok := got[name]
		if !ok {
			fmt.Printf("benchcompare: FAIL %s has a gated %s/op but the run reported none (missing -benchmem?)\n", name, unit)
			fails = append(fails, fmt.Sprintf("%s (no %s/op in run)", name, unit))
			continue
		}
		deltaPct := (cur - r) / r * 100
		verdict := "ok  "
		if cur > r*(1+maxRegress/100) && cur-r > floor {
			verdict = "FAIL"
			fails = append(fails, fmt.Sprintf("%s %s %+.1f%%", name, unit, deltaPct))
		}
		fmt.Printf("benchcompare: %s %s %s/op %+.1f%% (%.0f -> %.0f)%s\n",
			verdict, name, unit, deltaPct, r, cur, perMsg(name, cur, unit))
	}
	return fails
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "baseline timings file")
	maxRegress := flag.Float64("max-regress", 10, "max allowed regression in percent")
	floor := flag.Duration("floor", 25_000_000, "absolute slowdown a regression must also exceed")
	allocFloor := flag.Float64("alloc-floor", 512, "absolute allocs/op growth an alloc regression must also exceed")
	writePath := flag.String("write", "", "also record this run as a baseline-format JSON at the given path")
	flag.Parse()
	if *abMode {
		os.Exit(runAB())
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: parsing %s: %v\n", *basePath, err)
		os.Exit(2)
	}

	got := map[string]float64{}
	gotAllocs, gotBytes := map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through
		if name, m, ok := parseGoBench(line); ok {
			if v, has := m["ns/op"]; has {
				got[name] = v
			}
			if v, has := m["B/op"]; has {
				gotBytes[name] = v
			}
			if v, has := m["allocs/op"]; has {
				gotAllocs[name] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: reading stdin: %v\n", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: no benchmark lines on stdin")
		os.Exit(2)
	}

	// The compute phase makes the long-pole exhibits scale with cores, so
	// a delta is only meaningful against the parallelism it was recorded
	// at. Print both sides; flag a mismatch loudly.
	procs, cores := runtime.GOMAXPROCS(0), runtime.NumCPU()
	fmt.Printf("benchcompare: this run GOMAXPROCS=%d NumCPU=%d; baseline GOMAXPROCS=%d NumCPU=%d\n",
		procs, cores, base.GoMaxProcs, base.NumCPU)
	if base.GoMaxProcs != 0 && base.GoMaxProcs != procs {
		fmt.Printf("benchcompare: NOTE core count differs from baseline — compute-phase exhibits (MapReduce, Ablation) shift with parallelism\n")
	}

	if *writePath != "" {
		fresh := baseline{
			Recorded: time.Now().UTC().Format("2006-01-02"),
			Command:  base.Command,
			Go:       runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			// CPU model is unknowable portably from here; leave it empty
			// rather than inherit the committed baseline's machine.
			GoMaxProcs: procs,
			NumCPU:     cores,
			Clock:      base.Clock,
			Note:       "fresh run recorded by benchcompare -write (per-PR artifact); compare against the committed baseline at matching GOMAXPROCS",
			NsPerOp:    got,
			// Every -benchmem column the run reported, gated or not: the
			// artifact is the trajectory, the committed file picks the gates.
			AllocsPerOp: gotAllocs,
			BytesPerOp:  gotBytes,
		}
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err == nil {
			err = os.WriteFile(*writePath, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: writing %s: %v\n", *writePath, err)
			os.Exit(2)
		}
		fmt.Printf("benchcompare: wrote fresh timings to %s\n", *writePath)
	}

	failures := 0
	for name, ref := range base.NsPerOp {
		cur, ok := got[name]
		if !ok {
			// A baseline benchmark absent from the run means a rename or a
			// partially-crashed bench suite — fail rather than let a green
			// pipe hide it.
			fmt.Printf("benchcompare: FAIL %s in baseline but not in run\n", name)
			failures++
			continue
		}
		deltaPct := (cur - ref) / ref * 100
		switch {
		case cur > ref*(1+*maxRegress/100) && cur-ref > float64(*floor):
			fmt.Printf("benchcompare: FAIL %s regressed %+.1f%% (%.1fms -> %.1fms)%s\n",
				name, deltaPct, ref/1e6, cur/1e6, perMsg(name, cur, "ns"))
			failures++
		default:
			fmt.Printf("benchcompare: ok   %s %+.1f%% (%.1fms -> %.1fms)%s\n",
				name, deltaPct, ref/1e6, cur/1e6, perMsg(name, cur, "ns"))
		}
	}
	for name := range got {
		if _, ok := base.NsPerOp[name]; !ok {
			fmt.Printf("benchcompare: WARN %s not in baseline (regenerate %s)\n", name, *basePath)
		}
	}
	// Memory gates: only benchmarks the baseline lists are checked.
	memFails := append(gateColumn("allocs", base.AllocsPerOp, gotAllocs, *maxRegress, *allocFloor),
		gateColumn("B", base.BytesPerOp, gotBytes, *maxRegress, bytesFloor)...)
	failures += len(memFails)
	if failures > 0 {
		// Not every failure is a timing regression (missing benchmarks and
		// absent -benchmem columns also count) — point the log reader at the
		// FAIL lines, and name the memory-gate failures with their deltas
		// here so the summary alone says which exhibits broke the zero-copy
		// budget and by how much.
		fmt.Fprintf(os.Stderr, "benchcompare: %d check(s) failed (time, allocs or bytes, see FAIL lines) vs %s (recorded %s at GOMAXPROCS=%d)\n",
			failures, *basePath, base.Recorded, base.GoMaxProcs)
		if len(memFails) > 0 {
			fmt.Fprintf(os.Stderr, "benchcompare: allocs/bytes gate failures: %s\n", strings.Join(memFails, ", "))
		}
		os.Exit(1)
	}
	fmt.Printf("benchcompare: all %d benchmarks within %.0f%% of baseline\n", len(got), *maxRegress)
}
