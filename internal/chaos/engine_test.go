package chaos

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/vclock/vclocktest"
)

// TestEngineMissesWithoutTargets runs one fault of every kind against a
// Targets that holds only the clock: each fault is logged once, as a
// miss with its kind's note, in plan order, and a windowed fault that
// missed when the timeline was built logs no recovery.
func TestEngineMissesWithoutTargets(t *testing.T) {
	want := map[Kind]string{
		BackendOutage:   "no backends",
		PilotCrash:      "no pilot source",
		EvictStorm:      "no storm target",
		PartitionStall:  "no broker",
		CommitSkew:      "no broker",
		WorkerChurn:     "no group",
		ShardLoss:       "no cluster",
		ShardLink:       "no cluster shards to partition",
		ReplicaLag:      "no cluster links to lag",
		TornReplication: "no replicated cluster topic",
		CrashMidCatchup: "no cluster",
	}
	counts := map[Kind]int{}
	for k := Kind(0); k < NumKinds; k++ {
		counts[k] = 1
	}
	plan := Compile(dist.NewStream(3), Config{Horizon: time.Minute, Counts: counts})
	if len(plan.Faults) != len(want) {
		t.Fatalf("compiled %d faults, one per kind, but %d miss notes listed", len(plan.Faults), len(want))
	}
	clk := vclocktest.Adopted(t)
	log := NewEngine(plan, Targets{Clock: clk}).Run(context.Background())
	if len(log) != len(plan.Faults) {
		t.Fatalf("logged %d entries, want %d (one per fault, no recoveries): %+v", len(log), len(plan.Faults), log)
	}
	for i, a := range log {
		f := plan.Faults[i]
		if a.Fault != f || a.At != f.At {
			t.Fatalf("entry %d is %v at %v, want %v at %v", i, a.Fault, a.At, f, f.At)
		}
		if a.Hit || a.Note != want[f.Kind] {
			t.Fatalf("%v: hit=%v note %q, want a miss noting %q", f, a.Hit, a.Note, want[f.Kind])
		}
	}
}
