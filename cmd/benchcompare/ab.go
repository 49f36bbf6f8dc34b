package main

// The A/B mode (-ab): the pair protocol every performance claim in
// CHANGES.md rests on, as one command. Both revisions are exported with
// `git archive` into their own directories — each a clean checkout of the
// committed files, with its own .bench_build, and the repository's worktree
// list untouched — and the unmodified cmd/bench/run.sh of each runs in
// alternating pairs. The verdict rule is written once, in verdict.
//
//	go run ./cmd/benchcompare -ab -parent 7d76961 -workloads stream-repl3 -seeds 1,7 -pairs 10 -seconds 10
//
// A `go test` benchmark is a workload too: -gobench <pkg>:<regexp> runs
// `go test -run '^$' -bench <regexp> -benchmem -cpu 1 -count 1 <pkg>` in
// each exported tree, in the same alternation, and judges ns/op, allocs/op
// and B/op of every benchmark it matched as workload "go:<pkg>:<name>".
//
//	go run ./cmd/benchcompare -ab -parent HEAD^ -workloads '' -gobench './internal/dist:^BenchmarkStreamUint64$'

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var (
	abMode      = flag.Bool("ab", false, "A/B mode: run cmd/bench/run.sh on -parent and -rev in alternating pairs and print a verdict per metric")
	abParent    = flag.String("parent", "HEAD^", "A/B: the parent revision")
	abRev       = flag.String("rev", "HEAD", "A/B: the revision under test")
	abWorkloads = flag.String("workloads", "stream-repl3", "A/B: comma-separated workloads")
	abSeeds     = flag.String("seeds", "1", "A/B: comma-separated workload seeds")
	abPairs     = flag.Int("pairs", 10, "A/B: pairs per workload and seed")
	abSeconds   = flag.Int("seconds", 10, "A/B: run.sh --seconds for every run")
	abDir       = flag.String("dir", "", "A/B: directory the two revisions are exported into (default: a temporary one, removed afterwards)")
	abHistory   = flag.String("history", "BENCH_history.jsonl", "A/B: file each run appends one JSON line to (empty: none)")
	abGobench   = flag.String("gobench", "", "A/B: comma-separated go test benchmarks, each <pkg>:<regexp> (e.g. ./internal/dist:^BenchmarkStreamUint64$), run besides -workloads (pass -workloads '' for these alone)")
)

// Verdicts of one metric over a set of pairs.
const (
	ahead      = "ahead"
	noise      = "within noise"
	inBound    = "worse within bound"
	behind     = "behind"
	unresolved = "unresolved"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, linearly
// interpolated between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		r := p * float64(len(s)-1)
		i := int(r)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (r-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict judges one metric from paired runs (parent[i] and rev[i] ran as
// pair i) by the choosing-metrics rule. gain is how much better rev's
// median is than parent's, in the metric's direction.
//   - unresolved: fewer than ten pairs, unless every pair tied;
//   - ahead: rev wins at least nine tenths of the pairs (ties count for
//     neither side) and gain exceeds the parent's interquartile range, or
//     every run of rev beats every run of parent;
//   - behind: the mirror image of ahead, when rev's median is worse than
//     parent's by more than bound (a fraction of parent's median);
//     worse within bound when it is worse by less: a consistent shift the
//     bound allows;
//   - unresolved: otherwise, when either side's interquartile range
//     exceeds bound × parent's median — the runs spread too widely to call
//     the metric unchanged or worse;
//   - behind: otherwise, when rev's median is worse than parent's by more
//     than bound (a fraction of parent's median);
//   - within noise: otherwise.
func verdict(parent, rev []float64, lowerIsBetter bool, bound float64) (v string, wins, losses int) {
	better := func(a, b float64) bool { return (lowerIsBetter && a < b) || (!lowerIsBetter && a > b) }
	for i := range parent {
		switch {
		case better(rev[i], parent[i]):
			wins++
		case better(parent[i], rev[i]):
			losses++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	rq1, rm, rq3 := quartiles(rev)
	gain := rm - pm
	if lowerIsBetter {
		gain = -gain
	}
	n, iqr := len(parent), pq3-pq1
	beats := func(a, b []float64) bool {
		return n > 0 && better(edge(a, lowerIsBetter, false), edge(b, lowerIsBetter, true))
	}
	switch {
	case n < 10 && wins+losses > 0:
		return unresolved, wins, losses
	case n > 0 && 10*wins >= 9*n && gain > iqr, beats(rev, parent):
		return ahead, wins, losses
	case n > 0 && 10*losses >= 9*n && -gain > iqr, beats(parent, rev):
		if -gain > bound*math.Abs(pm) {
			return behind, wins, losses
		}
		return inBound, wins, losses
	case math.Max(pq3-pq1, rq3-rq1) > bound*math.Abs(pm):
		return unresolved, wins, losses
	case -gain > bound*math.Abs(pm):
		return behind, wins, losses
	}
	return noise, wins, losses
}

// edge returns xs's best value in the metric's direction (best) or its
// worst.
func edge(xs []float64, lowerIsBetter, best bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if lowerIsBetter == best {
		return s[0]
	}
	return s[len(s)-1]
}

// abRun is one harness run, as parsed from run.sh's output and as appended
// to the history file.
type abRun struct {
	Date       string             `json:"date"`
	Rev        string             `json:"rev"`
	Parent     string             `json:"parent"`
	Side       string             `json:"side"` // "parent" or "rev": which of the two this run measured
	Pair       int                `json:"pair"`
	Host       string             `json:"host"`
	NumCPU     int                `json:"num_cpu"`
	GoMaxProcs string             `json:"gomaxprocs"`
	Workload   string             `json:"workload"`
	Seed       string             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Digest     string             `json:"digest"`
	Correct    bool               `json:"correct"`
	Metrics    map[string]float64 `json:"metrics"`
}

var (
	digestLine = regexp.MustCompile(`digest ([0-9a-f]+)`)
	procsLine  = regexp.MustCompile(`GOMAXPROCS=(\d+)`)
)

// runBench runs the harness once in dir and parses its final JSON line.
func runBench(dir, workload, seed string) (*abRun, error) {
	cmd := exec.Command("bash", "cmd/bench/run.sh", "--workload", workload, "--seed", seed,
		"--seconds", fmt.Sprint(*abSeconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run.sh in %s: %w", dir, err)
	}
	r := &abRun{Workload: workload, Seed: seed, Seconds: *abSeconds, Metrics: map[string]float64{}}
	if m := digestLine.FindSubmatch(out); m != nil {
		r.Digest = string(m[1])
	}
	if m := procsLine.FindSubmatch(out); m != nil {
		r.GoMaxProcs = string(m[1])
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if line := sc.Bytes(); len(line) > 0 && line[0] == '{' {
			last = append(last[:0], line...)
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("run.sh in %s printed no result line: %w", dir, err)
	}
	r.Correct = res.Correct
	for k, v := range res.Metrics {
		r.Metrics[k] = v.Value
	}
	return r, nil
}

// goMetrics are the go test units an A/B judges, each with the end-to-end
// metric whose bound it borrows from BENCHMARK.json.
var goMetrics = []struct{ unit, borrow string }{
	{"ns/op", "throughput_ops_s"}, {"allocs/op", "allocs_per_op"}, {"B/op", "alloc_bytes_per_op"},
}

// runGoBench runs the go test benchmarks matching re in pkg once, in dir,
// and returns one run per benchmark, as workload "go:<pkg>:<name>".
func runGoBench(dir, pkg, re string) ([]*abRun, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", re, "-benchmem", "-cpu", "1", "-count", "1", pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(dir, ".bench_build", "gocache"), "GOTOOLCHAIN=local")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench %s %s in %s: %w\n%s", re, pkg, dir, err, out)
	}
	var runs []*abRun
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if name, metrics, ok := parseGoBench(sc.Text()); ok {
			runs = append(runs, &abRun{Workload: "go:" + pkg + ":" + name, GoMaxProcs: "1", Correct: true, Metrics: metrics})
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("go test -bench %s %s in %s matched no benchmark", re, pkg, dir)
	}
	return runs, nil
}

// parseGoBench parses one result line of `go test -bench` output: the
// benchmark's name without its -GOMAXPROCS suffix, and each value by its
// unit (ns/op, B/op, allocs/op and any b.ReportMetric unit).
func parseGoBench(line string) (name string, metrics map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", nil, false
	}
	metrics = make(map[string]float64, len(f)/2-1)
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[f[i+1]] = v
	}
	return gomaxprocsSuffix.ReplaceAllString(f[0], ""), metrics, true
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// export writes rev's committed tree into dir (once) and returns its full
// hash.
func export(rev, dir string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %w", rev, err)
	}
	hash := strings.TrimSpace(string(out))
	path := filepath.Join(dir, hash[:12])
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", hash, path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("exporting %s: %w", rev, err)
	}
	return hash, nil
}

// runAB is the -ab mode; it returns the exit status.
func runAB() int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchcompare -ab: %v\n", err)
		return 2
	}
	dir := *abDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchcompare-ab-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	parent, err := export(*abParent, dir)
	if err != nil {
		return fail(err)
	}
	rev, err := export(*abRev, dir)
	if err != nil {
		return fail(err)
	}
	sides := map[string]string{"parent": filepath.Join(dir, parent[:12]), "rev": filepath.Join(dir, rev[:12])}
	raw, err := os.ReadFile(filepath.Join(sides["rev"], "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fail(fmt.Errorf("parsing BENCHMARK.json: %w", err))
	}
	var history *os.File
	if *abHistory != "" {
		if history, err = os.OpenFile(*abHistory, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
			return fail(err)
		}
		defer history.Close()
	}
	bound := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var goSpecs []metricSpec
	for _, g := range goMetrics {
		goSpecs = append(goSpecs, metricSpec{Name: g.unit, Better: "lower", Bound: bound[g.borrow]})
	}
	// A job is what one side runs once per pair: a harness workload at a
	// seed, or a go test invocation, which may measure several benchmarks.
	type job struct {
		seed string
		run  func(dir string) ([]*abRun, error)
	}
	var jobs []job
	for _, w := range fields(*abWorkloads) {
		for _, seed := range fields(*abSeeds) {
			jobs = append(jobs, job{seed, func(dir string) ([]*abRun, error) {
				r, err := runBench(dir, w, seed)
				return []*abRun{r}, err
			}})
		}
	}
	for _, g := range fields(*abGobench) {
		pkg, re, ok := strings.Cut(g, ":")
		if !ok {
			return fail(fmt.Errorf("-gobench %q: want <pkg>:<regexp>", g))
		}
		jobs = append(jobs, job{"", func(dir string) ([]*abRun, error) { return runGoBench(dir, pkg, re) }})
	}
	host, _ := os.Hostname() // only labels the history lines
	status := 0
	for _, j := range jobs {
		runs := map[string]map[string][]*abRun{} // workload → side → runs
		var workloads []string
		for i := 0; i < *abPairs; i++ {
			order := []string{"parent", "rev"}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, side := range order {
				rs, err := j.run(sides[side])
				if err != nil {
					return fail(err)
				}
				for _, r := range rs {
					r.Date, r.Rev, r.Parent, r.Side, r.Pair = time.Now().UTC().Format(time.RFC3339), rev, parent, side, i
					r.Host, r.NumCPU = host, runtime.NumCPU()
					if runs[r.Workload] == nil {
						runs[r.Workload] = map[string][]*abRun{}
						workloads = append(workloads, r.Workload)
					}
					runs[r.Workload][side] = append(runs[r.Workload][side], r)
					if history != nil {
						line, _ := json.Marshal(r) // a struct of strings, numbers and a map: cannot fail
						if _, err := history.Write(append(line, '\n')); err != nil {
							return fail(err)
						}
					}
					fmt.Fprintf(os.Stderr, "%s seed %q pair %d/%d %s: digest %q correct %v\n", r.Workload, r.Seed, i+1, *abPairs, side, r.Digest, r.Correct)
				}
			}
		}
		for _, w := range workloads {
			specs := bench.EndToEnd
			if strings.HasPrefix(w, "go:") {
				specs = goSpecs
			}
			if !report(w, j.seed, parent, rev, specs, runs[w]["parent"], runs[w]["rev"]) {
				status = 1
			}
		}
	}
	if history != nil {
		if err := history.Close(); err != nil {
			return fail(err)
		}
	}
	return status
}

// report prints one workload's pair table; false when a run was incorrect
// or the two sides' repetition digests differ.
func report(w, seed, parent, rev string, specs []metricSpec, p, r []*abRun) bool {
	if len(p) != len(r) {
		fmt.Printf("\n%s: measured on one side only (%d parent runs, %d rev runs)\n", w, len(p), len(r))
		return false
	}
	if seed == "" {
		fmt.Printf("\n%s: %s (parent) vs %s, %d pairs, -cpu 1\n", w, parent[:9], rev[:9], len(p))
	} else {
		fmt.Printf("\n%s seed %s: %s (parent) vs %s, %d pairs, --seconds %d\n", w, seed, parent[:9], rev[:9], len(p), *abSeconds)
	}
	ok := true
	digests := map[string]map[string]bool{"parent": {}, "rev": {}}
	for i := range p {
		digests["parent"][p[i].Digest] = true
		digests["rev"][r[i].Digest] = true
		ok = ok && p[i].Correct && r[i].Correct
	}
	same := len(digests["parent"]) == 1 && len(digests["rev"]) == 1 && p[0].Digest == r[0].Digest
	if seed != "" { // a go test benchmark prints no digest
		fmt.Printf("  digests: parent %v, rev %v, identical: %v; every run correct: %v\n",
			keys(digests["parent"]), keys(digests["rev"]), same, ok)
	}
	fmt.Printf("  %-20s %-34s %-34s %8s %6s  %s\n", "metric", "parent median (q1–q3)", "rev median (q1–q3)", "rev/par", "wins", "verdict")
	for _, m := range specs {
		pv, rv := make([]float64, len(p)), make([]float64, len(r))
		for i := range p {
			pv[i], rv[i] = p[i].Metrics[m.Name], r[i].Metrics[m.Name]
		}
		v, wins, _ := verdict(pv, rv, m.Better == "lower", m.Bound)
		pq1, pm, pq3 := quartiles(pv)
		rq1, rm, rq3 := quartiles(rv)
		fmt.Printf("  %-20s %-34s %-34s %8.3f %3d/%-2d  %s\n", m.Name,
			fmt.Sprintf("%.4g (%.4g–%.4g)", pm, pq1, pq3), fmt.Sprintf("%.4g (%.4g–%.4g)", rm, rq1, rq3),
			ratio(rm, pm), wins, len(p), v)
	}
	return ok && same
}

// ratio is rev's median over parent's: 1 when they are equal, a parent
// median of 0 included (a count both sides read as 0).
func ratio(rm, pm float64) float64 {
	if rm == pm {
		return 1
	}
	return rm / pm
}

// fields splits a comma-separated flag value, dropping empty entries.
func fields(list string) []string {
	var out []string
	for _, f := range strings.Split(list, ",") {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
