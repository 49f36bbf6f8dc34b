package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesRegistry pins BENCHMARK.json to the harness
// registry: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", bf.Paths)
	}
	if len(bf.Command) == 0 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("command %v, run_seconds %d", bf.Command, bf.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, registry %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if n := utf8.RuneCountInString(w.Why); n > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, n)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name("end_to_end", m.Name)
		r := endToEnd[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better || m.Bound != r.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, registry %s %s %s %v", i, m, r.Name, r.Unit, r.Better, r.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("per_layer", m.Name)
		r := perLayer[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, registry %s %s %s", i, m, r.Name, r.Unit, r.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	// Every ladder metric has exactly one rung and every rung a metric.
	ladder := map[string]int{}
	for _, m := range perLayer {
		if m.Source == srcLadder {
			ladder[m.Name] = 0
		}
	}
	for _, r := range rungs {
		if _, ok := ladder[r.name]; !ok {
			t.Errorf("rung %q is not a ladder metric", r.name)
		}
		ladder[r.name]++
	}
	for name, n := range ladder {
		if n != 1 {
			t.Errorf("ladder metric %q has %d rungs, want 1", name, n)
		}
	}
}

// smokeConfig is the 1/100 scale: three short repetitions, every rung once.
func smokeConfig(trace bool) runConfig {
	return runConfig{Seed: 7, Seconds: 0.01, MinReps: 3, Sizes: smokeSizes, Trace: trace, Ladder: smokeLadder}
}

// emitted parses a run's result line and checks it carries exactly the
// given metrics, each once and finite.
func emitted(t *testing.T, w string, res *result, want []metricDef) map[string]metricValue {
	t.Helper()
	var buf bytes.Buffer
	if err := printResultLine(&buf, res); err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int64                 `json:"attempted"`
		Failed    *int64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", w, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("%s: result line lacks correct/attempted/failed", w)
	}
	if !*line.Correct || *line.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d notes=%v", w, *line.Correct, *line.Failed, res.Notes)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", w, len(line.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := line.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", w, m.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
			t.Errorf("%s: metric %s = %v %q, want finite %q", w, m.Name, v.Value, v.Unit, m.Unit)
		}
	}
	return line.Metrics
}

// TestSmoke runs every workload at smoke scale, untraced and traced: every
// end-to-end metric is emitted once, finite and nonzero; every per-layer
// metric is emitted once and finite; and every count and sim metric is
// identical across two same-seed runs.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			var e2e, layers [2]map[string]metricValue
			for run := range e2e {
				res, err := runWorkload(w, smokeConfig(false))
				if err != nil {
					t.Fatal(err)
				}
				e2e[run] = emitted(t, w.Name, res, endToEnd)
				cfg := smokeConfig(true)
				if run == 1 {
					cfg.Ladder = ladderBudget{} // the rungs are host-clock; once is enough
				}
				res, err = runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				layers[run] = emitted(t, w.Name, res, perLayer)
				if len(res.Spans) == 0 {
					t.Errorf("traced run kept no spans")
				}
			}
			for _, m := range endToEnd {
				if e2e[0][m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, e2e[0][m.Name].Value)
				}
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range defs {
					if m.Clock == clockHost {
						continue
					}
					a, b := e2e[0][m.Name], e2e[1][m.Name]
					if m.Source != srcEndToEnd {
						a, b = layers[0][m.Name], layers[1][m.Name]
					}
					if a != b {
						t.Errorf("%s metric %s differs across same-seed runs: %v vs %v", m.Clock, m.Name, a.Value, b.Value)
					}
				}
			}
		})
	}
}

// TestServeCalibration drives the -calibrate protocol in process: one
// positive reading per line asked.
func TestServeCalibration(t *testing.T) {
	var out bytes.Buffer
	if err := serveCalibration(strings.NewReader("\n\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("asked twice, got %d readings: %q", len(lines), out.String())
	}
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) != calibParts {
			t.Errorf("reading %q has %d parts, want %d", l, len(fields), calibParts)
		}
		for _, f := range fields {
			if v, err := strconv.ParseFloat(f, 64); err != nil || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("reading %q: %q is not a positive number", l, f)
			}
		}
	}
}
