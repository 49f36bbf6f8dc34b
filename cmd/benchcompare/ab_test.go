package main

import (
	"maps"
	"testing"
)

// TestVerdict pins the pair rule, one row per way a metric can come out.
func TestVerdict(t *testing.T) {
	ten := func(xs ...float64) []float64 { return xs }
	for _, tc := range []struct {
		name          string
		parent, rev   []float64
		lowerIsBetter bool
		bound         float64
		want          string
		wins, losses  int
	}{
		{"clear gain, lower is better", ten(52, 55, 58, 53, 56, 57, 54, 55, 59, 52), ten(34, 33, 34, 33, 34, 34, 33, 34, 34, 33), true, 0.25, ahead, 10, 0},
		{"clear gain, higher is better", ten(6.3, 6.4, 6.9, 6.5, 6.3, 6.6, 6.4, 6.8, 6.5, 6.6), ten(8.1, 8.2, 8.3, 8.0, 8.2, 8.1, 8.4, 8.2, 8.3, 8.1), false, 0.25, ahead, 10, 0},
		{"eight of ten pairs", ten(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), ten(8, 8, 8, 8, 8, 8, 8, 8, 11, 11), true, 0.25, noise, 8, 2},
		{"every pair, gap inside the parent's IQR", ten(10, 12, 14, 10, 12, 14, 10, 12, 14, 12), ten(9.5, 11.5, 13.5, 9.5, 11.5, 13.5, 9.5, 11.5, 13.5, 11.5), true, 0.25, noise, 10, 0},
		{"identical, a modeled metric", ten(150.4, 150.4, 150.4, 150.4), ten(150.4, 150.4, 150.4, 150.4), true, 0.12, noise, 0, 0},
		{"spread wider than the bound", ten(1, 2, 1, 2, 1, 2, 1, 2, 1, 2), ten(2, 1, 2, 1, 1, 2, 2, 1, 1, 2), true, 0.25, unresolved, 3, 3},
		{"wide spread, every rev run beats every parent run", ten(3, 4, 3, 4, 3, 4, 3, 4, 3, 4), ten(1, 2, 1, 2, 1, 2, 1, 2, 1, 2), true, 0.25, ahead, 10, 0},
		{"one pair", ten(10), ten(5), true, 0.25, unresolved, 1, 0},
		{"the mirror of a gain", ten(34, 33, 34, 33, 34, 34, 33, 34, 34, 33), ten(52, 55, 58, 53, 56, 57, 54, 55, 59, 52), true, 0.25, behind, 0, 10},
		{"median worse than the bound, two pairs won", ten(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), ten(8, 8, 8, 8, 8, 8, 11, 8, 11, 8), false, 0.12, behind, 2, 8},
		{"median worse than the bound, spread wider", ten(1, 2, 1, 2, 1, 2, 1, 2, 1, 2), ten(2, 2, 2, 2, 1, 2, 2, 1, 2, 2), true, 0.25, unresolved, 1, 4},
	} {
		got, wins, losses := verdict(tc.parent, tc.rev, tc.lowerIsBetter, tc.bound)
		if got != tc.want || wins != tc.wins || losses != tc.losses {
			t.Errorf("%s: %q with %d wins, %d losses; want %q with %d, %d", tc.name, got, wins, losses, tc.want, tc.wins, tc.losses)
		}
	}
}

// TestQuartiles pins the interpolation on an even and an odd count.
func TestQuartiles(t *testing.T) {
	if q1, m, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.75 || m != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles(1..4) = %v %v %v", q1, m, q3)
	}
	if q1, m, q3 := quartiles([]float64{5, 1, 3, 2, 4}); q1 != 2 || m != 3 || q3 != 4 {
		t.Fatalf("quartiles(1..5) = %v %v %v", q1, m, q3)
	}
}

// TestParseGoBench pins the go test result-line parser, one row per shape
// the A/B's go test workloads and the gate read.
func TestParseGoBench(t *testing.T) {
	for _, tc := range []struct {
		line    string
		name    string
		metrics map[string]float64
	}{
		{"BenchmarkStreamUint64   \t363331740\t         3.259 ns/op", "BenchmarkStreamUint64", map[string]float64{"ns/op": 3.259}},
		{"BenchmarkSubmitUnits  \t    1747\t    645411 ns/op\t       161.4 ns/unit\t 1957080 B/op\t    4016 allocs/op",
			"BenchmarkSubmitUnits", map[string]float64{"ns/op": 645411, "ns/unit": 161.4, "B/op": 1957080, "allocs/op": 4016}},
		{"BenchmarkNamed/segments1/draw-2 \t44718453\t 33.71 ns/op\t 0 B/op\t 0 allocs/op",
			"BenchmarkNamed/segments1/draw", map[string]float64{"ns/op": 33.71, "B/op": 0, "allocs/op": 0}},
		{"BenchmarkTable2_MapReduce-4   3   31022455 ns/op", "BenchmarkTable2_MapReduce", map[string]float64{"ns/op": 31022455}},
		{"BenchmarkBacklogDrain", "", nil}, // the name line a benchmark with sub-benchmarks or log output prints
		{"BenchmarkX \t 12 \t 3.1 ns/op \t 7", "", nil},
		{"BenchmarkX \t many \t 3.1 ns/op", "", nil},
		{"goos: linux", "", nil},
		{"pkg: gopilot/internal/dist", "", nil},
		{"--- FAIL: BenchmarkX", "", nil},
		{"ok  \tgopilot/internal/dist\t7.010s", "", nil},
	} {
		name, metrics, ok := parseGoBench(tc.line)
		if ok != (tc.metrics != nil) || name != tc.name || !maps.Equal(metrics, tc.metrics) {
			t.Errorf("parseGoBench(%q) = %q %v %v; want %q %v", tc.line, name, metrics, ok, tc.name, tc.metrics)
		}
	}
}
