package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"gopilot/internal/chaos"
)

// A zero-fault run must hold every invariant — the suite's false-positive
// floor.
func TestChaosZeroFaultsClean(t *testing.T) {
	r, err := Chaos(ChaosOptions{Seed: 42, ZeroFaults: true, Messages: 400, Units: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok() {
		t.Fatalf("zero-fault run violated invariants: %v", r.Violations)
	}
	if r.Processed != r.Produced {
		t.Fatalf("processed %d of %d", r.Processed, r.Produced)
	}
	if r.UnitsDone != 8 || r.UnitsFail != 0 {
		t.Fatalf("units done=%d fail=%d, want 8/0", r.UnitsDone, r.UnitsFail)
	}
	if len(r.Injected) != 0 {
		t.Fatalf("zero-fault plan injected %d faults", len(r.Injected))
	}
	if r.Schedule.Decisions == 0 {
		t.Fatal("recorder captured no decisions")
	}
}

// The default fault mix must be survivable: faults fire, the invariants
// hold anyway.
func TestChaosDefaultFaultsInvariantsHold(t *testing.T) {
	r, err := Chaos(ChaosOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok() {
		t.Fatalf("invariant violations under default faults: %v", r.Violations)
	}
	hit := 0
	for _, a := range r.Injected {
		if a.Hit {
			hit++
		}
	}
	if hit == 0 {
		t.Fatal("no fault found a victim — the scenario is not exercising anything")
	}
	if r.Processed != r.Produced {
		t.Fatalf("processed %d of %d", r.Processed, r.Produced)
	}
}

// TestChaosSkewedCommitOnDeadLeader replays the six default-mix seeds of
// 0–199 that used to end in a deterministic cursor-rewind ("commit starts
// at 192, last mark was 208"): a commit held in flight by the commit-skew
// fault landed on a leader FailShard had closed during the skew, so the
// deposed log applied it and fired OnCommit below the coordinator's
// mark. shard.Commit now re-checks closed after the skew sleep.
func TestChaosSkewedCommitOnDeadLeader(t *testing.T) {
	for _, seed := range []int64{72, 97, 105, 112, 143, 185} {
		r, err := Chaos(ChaosOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok() {
			t.Errorf("seed %d: %v", seed, r.Violations)
		}
	}
}

// Same chaos seed, same everything: fault schedule, injection log,
// terminal state and decision trace are bit-identical across 5 runs at
// GOMAXPROCS=4 (run under -race in CI).
func TestChaosSameSeedBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var base *ChaosReport
	for run := 0; run < 5; run++ {
		r, err := Chaos(ChaosOptions{Seed: 11, Messages: 400, Units: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok() {
			t.Fatalf("run %d: violations: %v", run, r.Violations)
		}
		if base == nil {
			base = r
			continue
		}
		if r.Plan.Hash() != base.Plan.Hash() {
			t.Fatalf("run %d: plan diverged", run)
		}
		if !reflect.DeepEqual(r.Injected, base.Injected) {
			t.Fatalf("run %d: injection log diverged:\n%v\nvs\n%v", run, r.Injected, base.Injected)
		}
		if r.StateHash != base.StateHash {
			t.Fatalf("run %d: state hash diverged: %x vs %x", run, r.StateHash, base.StateHash)
		}
		if r.Schedule.Decisions != base.Schedule.Decisions || r.Schedule.Hash != base.Schedule.Hash {
			t.Fatalf("run %d: schedule diverged: %d/%x vs %d/%x", run,
				r.Schedule.Decisions, r.Schedule.Hash, base.Schedule.Decisions, base.Schedule.Hash)
		}
	}
}

// TestChaosCatchesStaleHandoffBug is the federation analogue of the
// barrier-carry acceptance test: a shard-loss leader handoff that
// restores the commit mark from the promoted shard's stale
// lazily-replicated local mark and skips divergence repair on deposed
// replicas (the deliberate stale-handoff defect) must (a) be caught as
// a cursor-rewind or diverged-replica violation under consumer churn
// and replication lag, (b) replay bit-identically from its seed, and
// (c) bisect to a minimal failing fault prefix that ends at the
// shard-loss fault — the handoff decision — with the passing and
// failing schedules diverging at an identifiable point.
func TestChaosCatchesStaleHandoffBug(t *testing.T) {
	shardy := chaos.Config{
		Horizon: 3 * time.Minute,
		Counts: map[chaos.Kind]int{
			chaos.ShardLoss: 1, chaos.WorkerChurn: 4, chaos.ReplicaLag: 2,
		},
	}
	bugOpts := func(seed int64, maxFaults int) ChaosOptions {
		return ChaosOptions{Seed: seed, Faults: shardy, HandoffBug: true,
			Messages: 2400, Units: 4, CostPerMessage: 25 * time.Millisecond,
			MaxFaults: maxFaults}
	}
	// (a) Find a seed the bug breaks: the loss must land while the group
	// is mid-stream (commits before it, so the stale checkpoint lags;
	// commits after it, so the rewound mark is observed) — scan a few.
	var failing *ChaosReport
	var seed int64
	for s := int64(0); s < 8 && failing == nil; s++ {
		r, err := Chaos(bugOpts(s, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok() {
			failing, seed = r, s
		}
	}
	if failing == nil {
		t.Fatal("stale-handoff bug not caught on any probed seed")
	}
	sig := false
	for _, v := range failing.Violations {
		if v.Invariant == "cursor-rewind" || v.Invariant == "diverged-replica-after-repair" {
			sig = true
		}
	}
	if !sig {
		t.Fatalf("caught violations lack the stale-handoff signature: %v", failing.Violations)
	}

	// (b) The failing seed replays bit-identically.
	again, err := Chaos(bugOpts(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if again.StateHash != failing.StateHash || again.Schedule.Hash != failing.Schedule.Hash {
		t.Fatalf("failing seed did not replay bit-identically: %x/%x vs %x/%x",
			again.StateHash, again.Schedule.Hash, failing.StateHash, failing.Schedule.Hash)
	}

	// (c) Bisect to the minimal failing prefix; its last fault must be
	// the shard loss whose handoff restored the stale checkpoint.
	total := len(failing.Plan.Faults)
	prefix := func(n int) int { // MaxFaults encoding: 0 = all, negative = none
		if n == 0 {
			return -1
		}
		return n
	}
	minimal := chaos.BisectFaults(total, func(n int) bool {
		r, err := Chaos(bugOpts(seed, prefix(n)))
		if err != nil {
			t.Fatal(err)
		}
		return !r.Ok()
	})
	if minimal == 0 || minimal > total {
		t.Fatalf("bisection found no failing prefix (minimal=%d of %d)", minimal, total)
	}
	if got := failing.Plan.Faults[minimal-1].Kind; got != chaos.ShardLoss {
		t.Fatalf("minimal prefix ends at %v, want the shard-loss handoff decision", got)
	}
	pass, err := Chaos(bugOpts(seed, prefix(minimal-1)))
	if err != nil {
		t.Fatal(err)
	}
	fail, err := Chaos(bugOpts(seed, minimal))
	if err != nil {
		t.Fatal(err)
	}
	if !pass.Ok() {
		t.Fatalf("prefix below minimal still fails: %v", pass.Violations)
	}
	if from, to, ok := chaos.FirstDivergentBlock(pass.Schedule, fail.Schedule); ok {
		if from >= to {
			t.Fatalf("divergent block [%d,%d) is empty", from, to)
		}
	} else if pass.Schedule.Hash == fail.Schedule.Hash {
		t.Fatal("passing and failing prefixes recorded identical schedules")
	}
}

// TestChaosPlantedAndCleanRunsShareAProcess: the planted defects are
// fields of the cluster and group they are planted in, not package state,
// so a planted run and a clean run of the same seeds can overlap in one
// process (run under -race: make test-federation). The planted side must
// report its defect's signature; the clean side, running concurrently on
// the same seeds, must not report anything.
func TestChaosPlantedAndCleanRunsShareAProcess(t *testing.T) {
	scenarios := []struct {
		name string
		opts ChaosOptions
		sigs []string
	}{
		{"stale-handoff", ChaosOptions{HandoffBug: true, Messages: 2400, Units: 4, CostPerMessage: 25 * time.Millisecond,
			Faults: chaos.Config{Horizon: 3 * time.Minute, Counts: map[chaos.Kind]int{
				chaos.ShardLoss: 1, chaos.WorkerChurn: 4, chaos.ReplicaLag: 2}}},
			[]string{"cursor-rewind", "diverged-replica-after-repair"}},
		{"barrier-carry", ChaosOptions{BarrierBug: true, Messages: 3200, Units: 4, CostPerMessage: 100 * time.Millisecond,
			Faults: chaos.Config{Horizon: 3 * time.Minute, Counts: map[chaos.Kind]int{chaos.WorkerChurn: 6}}},
			[]string{"exactly-once", "stranded-barrier"}},
	}
	const seeds = 6
	for _, sc := range scenarios {
		t.Run(sc.name+"/planted", func(t *testing.T) {
			t.Parallel()
			caught := 0
			for s := int64(0); s < seeds; s++ {
				opts := sc.opts
				opts.Seed = s
				r, err := Chaos(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range r.Violations {
					if slices.Contains(sc.sigs, v.Invariant) {
						caught++
						break
					}
				}
			}
			if caught == 0 {
				t.Fatalf("planted %s defect reported no %v violation on seeds 0-%d", sc.name, sc.sigs, seeds-1)
			}
		})
		t.Run(sc.name+"/clean", func(t *testing.T) {
			t.Parallel()
			for s := int64(0); s < seeds; s++ {
				opts := sc.opts
				opts.Seed, opts.HandoffBug, opts.BarrierBug = s, false, false
				r, err := Chaos(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Ok() {
					t.Fatalf("clean run of seed %d beside a planted one: %v", s, r.Violations)
				}
			}
		})
	}
}

// The acceptance test of the whole chaos workflow: the deliberately
// reintroduced barrier-carry defect must (a) be caught by the invariant
// suite under worker churn, (b) replay bit-identically from its seed, and
// (c) bisect to a minimal failing fault prefix whose recorded schedule
// pinpoints the first divergent decision against the passing prefix.
func TestChaosCatchesBarrierCarryBug(t *testing.T) {
	churny := chaos.Config{
		Horizon: 3 * time.Minute,
		Counts:  map[chaos.Kind]int{chaos.WorkerChurn: 6},
	}
	// Near-saturating load: workers must be mid-batch when churn lands
	// for the defect's ownership overlap to have anything to overlap on.
	bugOpts := func(seed int64, maxFaults int) ChaosOptions {
		return ChaosOptions{Seed: seed, Faults: churny, BarrierBug: true,
			Messages: 3200, Units: 4, CostPerMessage: 100 * time.Millisecond,
			MaxFaults: maxFaults}
	}
	// (a) Find a seed the bug breaks. The defect needs a churn to land
	// while the previous churn's barrier still has a straggler, so not
	// every seed trips it; scan a few.
	var failing *ChaosReport
	var seed int64
	for s := int64(0); s < 8 && failing == nil; s++ {
		r, err := Chaos(bugOpts(s, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok() {
			failing, seed = r, s
		}
	}
	if failing == nil {
		t.Fatal("barrier-carry bug not caught on any probed seed")
	}
	// The violation must be the bug's signature, not collateral noise.
	sig := false
	for _, v := range failing.Violations {
		if v.Invariant == "exactly-once" || v.Invariant == "stranded-barrier" {
			sig = true
		}
	}
	if !sig {
		t.Fatalf("caught violations lack the bug's signature: %v", failing.Violations)
	}

	// (b) The failing seed replays bit-identically.
	again, err := Chaos(bugOpts(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if again.StateHash != failing.StateHash || again.Schedule.Hash != failing.Schedule.Hash {
		t.Fatalf("failing seed did not replay bit-identically: %x/%x vs %x/%x",
			again.StateHash, again.Schedule.Hash, failing.StateHash, failing.Schedule.Hash)
	}

	// (c) Bisect to the minimal failing fault prefix...
	total := len(failing.Plan.Faults)
	prefix := func(n int) int { // MaxFaults encoding: 0 = all, negative = none
		if n == 0 {
			return -1
		}
		return n
	}
	minimal := chaos.BisectFaults(total, func(n int) bool {
		r, err := Chaos(bugOpts(seed, prefix(n)))
		if err != nil {
			t.Fatal(err)
		}
		return !r.Ok()
	})
	if minimal == 0 || minimal > total {
		t.Fatalf("bisection found no failing prefix (minimal=%d of %d)", minimal, total)
	}
	// ...and the last passing prefix's schedule must diverge from the
	// failing one at an identifiable first block of decisions.
	pass, err := Chaos(bugOpts(seed, prefix(minimal-1)))
	if err != nil {
		t.Fatal(err)
	}
	fail, err := Chaos(bugOpts(seed, minimal))
	if err != nil {
		t.Fatal(err)
	}
	from, to, ok := chaos.FirstDivergentBlock(pass.Schedule, fail.Schedule)
	if !ok {
		// Divergence can also live past the last common checkpoint; the
		// traces must still differ somewhere.
		if pass.Schedule.Hash == fail.Schedule.Hash {
			t.Fatal("passing and failing prefixes recorded identical schedules")
		}
	} else if from >= to {
		t.Fatalf("divergent block [%d,%d) is empty", from, to)
	}
}
