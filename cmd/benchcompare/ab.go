package main

// The A/B mode (-ab): the pair protocol every performance claim in
// CHANGES.md rests on, as one command. Both revisions are exported with
// `git archive` into their own directories — each a clean checkout of the
// committed files, with its own .bench_build, and the repository's worktree
// list untouched — and the unmodified cmd/bench/run.sh of each runs in
// alternating pairs. The verdict rule is written once, in verdict.
//
//	go run ./cmd/benchcompare -ab -parent 7d76961 -workloads stream-repl3 -seeds 1,7 -pairs 10 -seconds 10

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
)

// Verdicts of one metric over a set of pairs.
const (
	ahead      = "ahead"
	noise      = "within noise"
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
//   - behind: the mirror image of ahead;
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
		return behind, wins, losses
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
	host, _ := os.Hostname() // only labels the history lines
	status := 0
	for _, w := range strings.Split(*abWorkloads, ",") {
		for _, seed := range strings.Split(*abSeeds, ",") {
			runs := map[string][]*abRun{}
			for i := 0; i < *abPairs; i++ {
				order := []string{"parent", "rev"}
				if i%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				for _, side := range order {
					r, err := runBench(sides[side], w, seed)
					if err != nil {
						return fail(err)
					}
					r.Date, r.Rev, r.Parent, r.Side, r.Pair = time.Now().UTC().Format(time.RFC3339), rev, parent, side, i
					r.Host, r.NumCPU = host, runtime.NumCPU()
					runs[side] = append(runs[side], r)
					if history != nil {
						line, _ := json.Marshal(r) // a struct of strings, numbers and a map: cannot fail
						if _, err := history.Write(append(line, '\n')); err != nil {
							return fail(err)
						}
					}
					fmt.Fprintf(os.Stderr, "%s seed %s pair %d/%d %s: digest %s correct %v\n", w, seed, i+1, *abPairs, side, r.Digest, r.Correct)
				}
			}
			if !report(w, seed, parent, rev, bench.EndToEnd, runs["parent"], runs["rev"]) {
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
	fmt.Printf("\n%s seed %s: %s (parent) vs %s, %d pairs, --seconds %d\n", w, seed, parent[:9], rev[:9], len(p), *abSeconds)
	ok := true
	digests := map[string]map[string]bool{"parent": {}, "rev": {}}
	for i := range p {
		digests["parent"][p[i].Digest] = true
		digests["rev"][r[i].Digest] = true
		ok = ok && p[i].Correct && r[i].Correct
	}
	same := len(digests["parent"]) == 1 && len(digests["rev"]) == 1 && p[0].Digest == r[0].Digest
	fmt.Printf("  digests: parent %v, rev %v, identical: %v; every run correct: %v\n",
		keys(digests["parent"]), keys(digests["rev"]), same, ok)
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
			rm/pm, wins, len(p), v)
	}
	return ok && same
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
