package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestMillionMessagesBitIdenticalAcrossFiveRuns is E13's acceptance
// check: five same-seed runs of the scale exhibit — segmented log on a
// 3-shard federated cluster, a shard loss at the halfway mark,
// consumer-group join/leave rebalances, producer backpressure,
// low-watermark retention — must render bit-identical tables (at a
// reduced message count; the full 10⁶ run is
// BenchmarkStreaming_Million's job). The run must also prove its
// inline invariants held: every message delivered exactly once in
// order, commit marks gapless, resident bytes bounded — with at least
// one leader handoff actually exercised by the injected shard loss.
func TestMillionMessagesBitIdenticalAcrossFiveRuns(t *testing.T) {
	render := func() (string, []string) {
		tbl, err := MillionMessages(40_000)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(tbl.Title)
		for _, row := range tbl.Rows {
			b.WriteString("\n" + strings.Join(row, " | "))
		}
		if len(tbl.Rows) != 1 {
			t.Fatalf("want 1 row, got %d", len(tbl.Rows))
		}
		return b.String(), tbl.Rows[0]
	}
	ref, row := render()
	if !strings.Contains(ref, "40000") {
		t.Fatalf("run did not process all messages:\n%s", ref)
	}
	cell := func(col string) string {
		switch col {
		case "shards":
			return row[2]
		case "handoffs":
			return row[3]
		case "invariants":
			return row[len(row)-1]
		}
		t.Fatalf("unknown column %q", col)
		return ""
	}
	if got := cell("invariants"); got != "ok" {
		t.Fatalf("inline invariants breached: %s\n%s", got, ref)
	}
	if got := cell("shards"); got != "2" {
		t.Fatalf("want 2 live shards after the injected loss, got %s\n%s", got, ref)
	}
	if n, err := strconv.Atoi(cell("handoffs")); err != nil || n < 1 {
		t.Fatalf("shard loss produced no leader handoffs (%s)\n%s", cell("handoffs"), ref)
	}
	for i := 2; i <= 5; i++ {
		if got, _ := render(); got != ref {
			t.Fatalf("run %d diverged:\n--- run 1 ---\n%s\n--- run %d ---\n%s", i, ref, i, got)
		}
	}
}
