package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gopilot/internal/metrics"
)

// renderScrubbed renders a table, dropping the named column (used for
// E11's makespan_wall_ms, the one deliberately wall-clock-measured cell).
func renderScrubbed(t *metrics.Table, drop string) string {
	var b bytes.Buffer
	b.WriteString(t.Title)
	for _, row := range t.Rows {
		b.WriteString("\n")
		for i, cell := range row {
			if i < len(t.Columns) && t.Columns[i] == drop {
				continue
			}
			b.WriteString(cell)
			b.WriteString(" | ")
		}
	}
	return b.String()
}

// subtestName names each exhibit's subtest, keyed by its -run name. The
// names predate the Exhibits table and stay fixed, so a subtest keeps its
// identity in test history when exhibits are refactored.
var subtestName = map[string]string{
	"table1":      "E1_Table1",
	"overhead":    "E2_PilotOverhead",
	"rex":         "E3_RexScaling",
	"pilotdata":   "E4_PilotData",
	"mapreduce":   "E5_MapReduceScaling",
	"memory":      "E6_PilotMemory",
	"streaming":   "E7_Streaming",
	"serverless":  "E7b_Serverless",
	"model":       "E8_ThroughputModel",
	"latebinding": "E9_LateBinding",
	"dynamic":     "E9b_DynamicScaling",
	"fig5":        "E10_Fig5Loop",
	"ablation":    "E11_Ablation",
	"enkf":        "E12_EnKF",
	"million":     "E13_MillionMessages",
}

// TestSameSeedExhibitsBitIdentical runs every exhibit of Exhibits twice
// at small size on the virtual clock and requires bit-identical output —
// the acceptance criterion that the conservative time-warp extends the
// determinism of the perfmodel sims to the full concurrent runtime.
// Measured makespans, throughputs, latency quantiles, costs, notes: all
// must match to the last digit. Each run must also succeed with at least
// one row and one column, so a plain `go test ./...` drives every exhibit
// end to end.
func TestSameSeedExhibitsBitIdentical(t *testing.T) {
	if len(subtestName) != len(Exhibits) {
		t.Errorf("subtestName has %d entries for %d exhibits", len(subtestName), len(Exhibits))
	}
	for _, e := range Exhibits {
		name, ok := subtestName[e.Name]
		if !ok {
			t.Errorf("exhibit %q has no subtest name", e.Name)
			name = e.Name
		}
		t.Run(name, func(t *testing.T) {
			render := func() string {
				tb, err := e.Run(e.Seed, small)
				if err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
				if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
					t.Fatalf("%s: empty table (%d rows, %d columns)", e.Name, len(tb.Rows), len(tb.Columns))
				}
				// E11's makespan_wall_ms is the one legitimately
				// nondeterministic cell in the whole evaluation.
				return renderScrubbed(tb, "makespan_wall_ms") + "\n" + strings.Join(tb.Notes, "\n")
			}
			a, b := render(), render()
			if a != b {
				t.Fatalf("same seed, different output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
		})
	}
}

// runSmall runs the named exhibit at its seed and small size.
func runSmall(t *testing.T, name string) *metrics.Table {
	t.Helper()
	e := Find(name)
	if e == nil {
		t.Fatalf("no exhibit named %q", name)
	}
	tb, err := e.Run(e.Seed, small)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tb
}
