// Repo-wide smoke test: every experiment exhibit of the paper's
// evaluation (DESIGN.md index E1–E13) executes end to end (frame counts
// trimmed for the streaming exhibits to bound real CPU work), so a plain
// `go test ./...` exercises the full pipeline — SAGA adaptors over all
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
	"gopilot/internal/metrics"
	"gopilot/internal/perfmodel"
)

func tableOnly(tbl *metrics.Table, _ []string, err error) (*metrics.Table, error) {
	return tbl, err
}

func TestSmokeAllExhibits(t *testing.T) {
	exhibits := []struct {
		id, name string
		run      func() (*metrics.Table, error)
	}{
		{"E1", "Table1_Scenarios", experiments.Table1},
		{"E2", "PilotOverhead", func() (*metrics.Table, error) { return experiments.PilotOverhead(16) }},
		{"E3", "RexScaling", experiments.RexScaling},
		{"E4", "PilotData", experiments.PilotData},
		{"E5", "MapReduceScaling", experiments.MapReduceScaling},
		{"E6", "PilotMemory", experiments.PilotMemory},
		{"E7", "Streaming", func() (*metrics.Table, error) { return experiments.Streaming(120) }},
		{"E7b", "ServerlessStreaming", func() (*metrics.Table, error) { return experiments.ServerlessStreaming(80) }},
		{"E8", "ThroughputModel", func() (*metrics.Table, error) { return tableOnly(experiments.ThroughputModel(80)) }},
		{"E9", "LateBinding", experiments.LateBinding},
		{"E9b", "DynamicScaling", experiments.DynamicScaling},
		{"E10", "Fig5Loop", func() (*metrics.Table, error) { return tableOnly(experiments.Fig5Loop(60)) }},
		{"E11", "AblationAlgorithm", experiments.AblationAlgorithm},
		{"E12", "EnKFAdaptive", experiments.EnKFAdaptive},
		{"E13", "MillionMessages", func() (*metrics.Table, error) { return experiments.MillionMessages(40_000) }},
	}
	for _, ex := range exhibits {
		t.Run(ex.id+"_"+ex.name, func(t *testing.T) {
			tbl, err := ex.run()
			if err != nil {
				t.Fatalf("%s failed: %v", ex.name, err)
			}
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced an empty table", ex.name)
			}
			if len(tbl.Columns) == 0 {
				t.Fatalf("%s produced a table with no columns", ex.name)
			}
		})
	}
}

// TestSameSeedIdenticalModelOutput is the determinism check for the
// discrete-event performance models (sim.Engine). The concurrent-runtime
// exhibits have the matching — and stronger — end-to-end check in
// internal/experiments/determinism_test.go, now that they run on the
// vclock.Virtual executor.
func TestSameSeedIdenticalModelOutput(t *testing.T) {
	run := func() string {
		direct := perfmodel.DirectSubmissionSim(256, 32, time.Minute, dist.NewLogNormal(600, 1.0, 42))
		pilot := perfmodel.PilotSubmissionSim(256, 32, time.Minute, dist.NewLogNormal(600, 1.0, 43), 50*time.Millisecond)
		q := perfmodel.MaxOfNQuantile(dist.NewLogNormal(100, 1.0, 7), 64, 0.9, 500)
		cross := perfmodel.CrossoverTasks(16, 16, time.Minute,
			func() dist.Dist { return dist.NewLogNormal(600, 0.5, 11) }, time.Second, 1024)
		return fmt.Sprintf("%d|%d|%.17g|%d", direct, pilot, q, cross)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different model output:\n  run 1: %s\n  run 2: %s", a, b)
	}
}
