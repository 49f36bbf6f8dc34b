package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The assertions below check *shapes*, not absolute numbers, mirroring
// what EXPERIMENTS.md records.

func TestTestbedLifecycle(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	if tb.HPCA.TotalCores() != 1024 || tb.HPCB.TotalCores() != 512 {
		t.Fatalf("cluster sizes wrong: %d/%d", tb.HPCA.TotalCores(), tb.HPCB.TotalCores())
	}
	if len(tb.Registry.URLs()) != 6 {
		t.Fatalf("registered services = %v", tb.Registry.URLs())
	}
	mgr := tb.NewManager(nil)
	if mgr.Clock() != tb.Clock {
		t.Fatal("manager clock not shared")
	}
	tb.Close()
}

func TestTable1AllScenariosComplete(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 scenarios", len(tbl.Rows))
	}
	scenarios := []string{"task-parallel", "data-parallel", "dataflow", "iterative", "streaming"}
	for i, s := range scenarios {
		if tbl.Rows[i][0] != s {
			t.Errorf("row %d = %q, want %q", i, tbl.Rows[i][0], s)
		}
	}
}

func TestPilotOverheadCoversBackends(t *testing.T) {
	tbl, err := PilotOverhead(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 backends", len(tbl.Rows))
	}
	// The local reference backend must have the smallest startup; HPC and
	// cloud must show non-trivial startup (queue wait / boot).
	if !strings.Contains(tbl.Rows[0][0], "local") {
		t.Fatalf("first row = %v", tbl.Rows[0])
	}
}

func TestRexScalingShape(t *testing.T) {
	tbl, err := RexScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Speedup must rise with cores until the ensemble-size plateau; within
	// the plateau (32 vs 64 cores for 32 replicas) runs are equal up to
	// wall-clock noise, so the tolerance is generous there.
	prev := 0.0
	for _, row := range tbl.Rows {
		s, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("speedup cell %q", row[4])
		}
		if s < prev*0.85 {
			t.Fatalf("speedup regressed: %v", tbl.Rows)
		}
		prev = s
	}
	// The 8→32-core speedup must be clearly super-unity (the real shape).
	s32, _ := strconv.ParseFloat(tbl.Rows[2][4], 64)
	if s32 < 2.5 {
		t.Errorf("32-core speedup = %g, want ≥ 2.5", s32)
	}
	// Model error stays within the documented noise band.
	for _, row := range tbl.Rows {
		e, _ := strconv.ParseFloat(strings.TrimPrefix(row[3], "+"), 64)
		if e > 80 || e < -80 {
			t.Errorf("model error %s%% too large", row[3])
		}
	}
}

func TestPilotDataShape(t *testing.T) {
	tbl, err := PilotData()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Within each chunk size, the data-aware row must move fewer bytes
	// than the data-oblivious row.
	for i := 0; i < len(tbl.Rows); i += 2 {
		oblivious, _ := strconv.ParseFloat(tbl.Rows[i][3], 64)
		aware, _ := strconv.ParseFloat(tbl.Rows[i+1][3], 64)
		if aware > oblivious {
			t.Errorf("data-aware moved more bytes (%g) than oblivious (%g)", aware, oblivious)
		}
	}
}

func TestMapReduceScalingShape(t *testing.T) {
	tbl, err := MapReduceScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first, _ := strconv.ParseFloat(tbl.Rows[0][4], 64)
	last, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][4], 64)
	if first != 1 {
		t.Errorf("base speedup = %g", first)
	}
	if last <= 1.5 {
		t.Errorf("16-core speedup = %g, want > 1.5", last)
	}
}

func TestPilotMemoryShape(t *testing.T) {
	tbl, err := PilotMemory()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Memory-mode rows (odd indices) must report later-iteration speedup > 1.
	for i := 1; i < len(tbl.Rows); i += 2 {
		s, _ := strconv.ParseFloat(tbl.Rows[i][5], 64)
		if s <= 1 {
			t.Errorf("memory speedup = %g in row %v", s, tbl.Rows[i])
		}
	}
}

func TestStreamingShape(t *testing.T) {
	tbl, err := Streaming(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	t1, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	t8, _ := strconv.ParseFloat(tbl.Rows[3][2], 64)
	if t8 <= t1 {
		t.Errorf("throughput did not scale with partitions: %g → %g", t1, t8)
	}
}

func TestServerlessStreamingShape(t *testing.T) {
	tbl, err := ServerlessStreaming(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Serverless rows report cold starts; cluster rows do not.
	for i, row := range tbl.Rows {
		if i%2 == 0 && row[5] != "-" {
			t.Errorf("cluster row reports cold starts: %v", row)
		}
		if i%2 == 1 && row[5] == "-" {
			t.Errorf("serverless row missing cold starts: %v", row)
		}
	}
	// Serverless max latency must exceed its median (cold-start tail).
	p50, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	max, _ := strconv.ParseFloat(tbl.Rows[1][4], 64)
	if max <= p50 {
		t.Errorf("serverless max %g not above p50 %g", max, p50)
	}
}

func TestThroughputModelQuality(t *testing.T) {
	_, notes, err := ThroughputModel(300)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "R²") || !strings.Contains(joined, "holdout") {
		t.Fatalf("notes missing model diagnostics:\n%s", joined)
	}
}

func TestLateBindingPilotWins(t *testing.T) {
	tbl, err := LateBinding()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At 256 tasks the pilot must beat direct submission clearly.
	last := tbl.Rows[len(tbl.Rows)-1]
	s, _ := strconv.ParseFloat(last[5], 64)
	if s <= 1 {
		t.Fatalf("pilot speedup at 256 tasks = %g, want > 1 (%v)", s, last)
	}
}

func TestDynamicScalingBurstWins(t *testing.T) {
	tbl, err := DynamicScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[1][3] == "0" {
		t.Error("burst run used no cloud tasks")
	}
}

func TestFig5LoopConverges(t *testing.T) {
	tbl, notes, err := Fig5Loop(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(strings.Join(notes, " "), "refined choice") {
		t.Fatalf("notes = %v", notes)
	}
}

func TestAblationAlgorithmWins(t *testing.T) {
	tbl, err := AblationAlgorithm()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	naiveOps, _ := strconv.Atoi(tbl.Rows[0][3])
	ebOps, _ := strconv.Atoi(tbl.Rows[2][3])
	if ebOps >= naiveOps {
		t.Fatalf("early break ops %d not fewer than naive %d", ebOps, naiveOps)
	}
}

func TestEnKFAdaptiveRows(t *testing.T) {
	tbl, err := EnKFAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 cycles", len(tbl.Rows))
	}
}
