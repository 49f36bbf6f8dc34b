// Repo-wide smoke test: every exhibit of experiments.Exhibits executes end
// to end at experiments.Bench size, the size the root benchmarks time (the
// determinism test in internal/experiments runs each at the tests' small
// size), so a plain `go test ./...` exercises the full pipeline — SAGA services over all
// five simulated infrastructures, the pilot manager, Pilot-Data/-Memory/
// -MapReduce/-Streaming, the Mini-App runner, and both performance-model
// families — not just the per-package units.
package gopilot_test

import (
	"fmt"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/experiments"
	"gopilot/internal/perfmodel"
)

// smokeName names each exhibit's subtest, keyed by its -run name. The
// names predate the Exhibits table and stay fixed, so a subtest keeps its
// identity in test history when exhibits are refactored.
var smokeName = map[string]string{
	"table1":      "E1_Table1_Scenarios",
	"overhead":    "E2_PilotOverhead",
	"rex":         "E3_RexScaling",
	"pilotdata":   "E4_PilotData",
	"mapreduce":   "E5_MapReduceScaling",
	"memory":      "E6_PilotMemory",
	"streaming":   "E7_Streaming",
	"serverless":  "E7b_ServerlessStreaming",
	"model":       "E8_ThroughputModel",
	"latebinding": "E9_LateBinding",
	"dynamic":     "E9b_DynamicScaling",
	"fig5":        "E10_Fig5Loop",
	"ablation":    "E11_AblationAlgorithm",
	"enkf":        "E12_EnKFAdaptive",
	"million":     "E13_MillionMessages",
}

// TestSmokeAllExhibits runs every exhibit once at its seed and Bench size
// and requires a table with at least one row and one column. The root
// benchmarks run the same calls, but only under -bench; this keeps the
// Bench sizes under plain `go test`.
func TestSmokeAllExhibits(t *testing.T) {
	if len(smokeName) != len(experiments.Exhibits) {
		t.Errorf("smokeName has %d entries for %d exhibits", len(smokeName), len(experiments.Exhibits))
	}
	for _, e := range experiments.Exhibits {
		name, ok := smokeName[e.Name]
		if !ok {
			t.Errorf("exhibit %q has no subtest name", e.Name)
			name = e.Name
		}
		t.Run(name, func(t *testing.T) {
			tbl, err := e.Run(e.Seed, experiments.Bench)
			if err != nil {
				t.Fatalf("%s failed: %v", e.Name, err)
			}
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced an empty table", e.Name)
			}
			if len(tbl.Columns) == 0 {
				t.Fatalf("%s produced a table with no columns", e.Name)
			}
		})
	}
}

// TestSameSeedIdenticalModelOutput is the determinism check for the
// closed-form submission simulators of perfmodel. The concurrent-runtime
// exhibits have the matching — and stronger — end-to-end check in
// internal/experiments/determinism_test.go, now that they run on the
// vclock.Virtual executor.
func TestSameSeedIdenticalModelOutput(t *testing.T) {
	run := func() string {
		direct := perfmodel.DirectSubmissionSim(256, 32, time.Minute, dist.NewLogNormal(600, 1.0, 42))
		pilot := perfmodel.PilotSubmissionSim(256, 32, time.Minute, dist.NewLogNormal(600, 1.0, 43), 50*time.Millisecond)
		return fmt.Sprintf("%d|%d", direct, pilot)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different model output:\n  run 1: %s\n  run 2: %s", a, b)
	}
}
