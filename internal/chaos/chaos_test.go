package chaos

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/vclock"
)

func testConfig() Config {
	return Config{
		Horizon: 5 * time.Minute,
		Counts: map[Kind]int{
			BackendOutage:  2,
			PilotCrash:     3,
			EvictStorm:     1,
			PartitionStall: 2,
			CommitSkew:     1,
			WorkerChurn:    2,
		},
	}
}

// Same seed, same plan — bit-identical across 5 runs under the race
// detector at GOMAXPROCS=4 (the determinism contract a reproducing seed
// rests on).
func TestCompileDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := Compile(dist.NewStream(1234), testConfig())
	if len(base.Faults) != 11 {
		t.Fatalf("got %d faults, want 11", len(base.Faults))
	}
	for run := 1; run <= 5; run++ {
		p := Compile(dist.NewStream(1234), testConfig())
		if !reflect.DeepEqual(p, base) {
			t.Fatalf("run %d: plan diverged from run 0", run)
		}
		if p.Hash() != base.Hash() {
			t.Fatalf("run %d: hash diverged", run)
		}
	}
}

func TestCompileSeedSensitive(t *testing.T) {
	a := Compile(dist.NewStream(1), testConfig())
	b := Compile(dist.NewStream(2), testConfig())
	if a.Hash() == b.Hash() {
		t.Fatal("different seeds produced identical plans")
	}
}

// Changing one kind's count must not shift another kind's draws: each
// fault has its own labeled stream slot.
func TestCompileKindInsensitive(t *testing.T) {
	cfg := testConfig()
	base := Compile(dist.NewStream(7), cfg)
	cfg.Counts = map[Kind]int{BackendOutage: 2} // drop every other kind
	only := Compile(dist.NewStream(7), cfg)
	pick := func(p Plan) []Fault {
		var out []Fault
		for _, f := range p.Faults {
			if f.Kind == BackendOutage {
				out = append(out, f)
			}
		}
		return out
	}
	if !reflect.DeepEqual(pick(base), pick(only)) {
		t.Fatal("backend-outage faults shifted when other kinds were removed")
	}
}

func TestCompileSortedAndBounded(t *testing.T) {
	cfg := testConfig()
	p := Compile(dist.NewStream(99), cfg)
	if !sort.SliceIsSorted(p.Faults, func(a, b int) bool {
		if p.Faults[a].At != p.Faults[b].At {
			return p.Faults[a].At < p.Faults[b].At
		}
		if p.Faults[a].Kind != p.Faults[b].Kind {
			return p.Faults[a].Kind < p.Faults[b].Kind
		}
		return p.Faults[a].Ordinal < p.Faults[b].Ordinal
	}) {
		t.Fatal("plan not sorted by (At, Kind, Ordinal)")
	}
	for _, f := range p.Faults {
		if f.At < 0 || f.At >= cfg.Horizon {
			t.Fatalf("%v: At outside [0, horizon)", f)
		}
		if f.Kind.windowed() && f.Until <= f.At {
			t.Fatalf("%v: windowed fault without recovery window", f)
		}
		if f.Kind == CommitSkew && f.Delay <= 0 {
			t.Fatalf("%v: commit skew without delay", f)
		}
	}
}

func TestTruncate(t *testing.T) {
	p := Compile(dist.NewStream(5), testConfig())
	half := p.Truncate(5)
	if len(half.Faults) != 5 {
		t.Fatalf("got %d faults, want 5", len(half.Faults))
	}
	if !reflect.DeepEqual(half.Faults, p.Faults[:5]) {
		t.Fatal("truncation is not a prefix")
	}
	if got := p.Truncate(100); len(got.Faults) != len(p.Faults) {
		t.Fatal("over-truncation changed length")
	}
	if got := p.Truncate(-1); len(got.Faults) != 0 {
		t.Fatal("negative truncation kept faults")
	}
}

func TestBisectFaults(t *testing.T) {
	// Failure appears from prefix length 7 on.
	calls := 0
	got := BisectFaults(11, func(n int) bool { calls++; return n >= 7 })
	if got != 7 {
		t.Fatalf("bisected to %d, want 7", got)
	}
	if calls > 5 {
		t.Fatalf("bisection used %d probes for 12 candidates", calls)
	}
	if got := BisectFaults(4, func(n int) bool { return false }); got != 5 {
		t.Fatalf("no-failure bisection returned %d, want total+1", got)
	}
}

func TestFirstDivergentBlock(t *testing.T) {
	a := vclock.RecorderState{Stride: 100, Checkpoints: []uint64{1, 2, 3, 4}}
	b := vclock.RecorderState{Stride: 100, Checkpoints: []uint64{1, 2, 9, 9}}
	from, to, ok := FirstDivergentBlock(a, b)
	if !ok || from != 200 || to != 300 {
		t.Fatalf("got (%d,%d,%v), want (200,300,true)", from, to, ok)
	}
	if _, _, ok := FirstDivergentBlock(a, a); ok {
		t.Fatal("identical traces reported divergent")
	}
	if _, _, ok := FirstDivergentBlock(a, vclock.RecorderState{Stride: 50}); ok {
		t.Fatal("stride mismatch must not report a block")
	}
}

func TestFirstDivergence(t *testing.T) {
	mk := func(seqs ...uint64) []vclock.TraceEntry {
		out := make([]vclock.TraceEntry, len(seqs))
		for i, s := range seqs {
			out[i] = vclock.TraceEntry{N: uint64(i + 1), Kind: vclock.TraceGrant, Seq: s}
		}
		return out
	}
	if got := FirstDivergence(mk(1, 2, 3), mk(1, 2, 4)); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	if got := FirstDivergence(mk(1, 2), mk(1, 2, 3)); got != -1 {
		t.Fatalf("prefix traces: got %d, want -1", got)
	}
}

func TestCheckerStreamingInvariants(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	c := NewChecker(clk)
	c.Handled(0, 0)
	c.Handled(0, 1)
	c.Handled(1, 0)
	if len(c.Violations()) != 0 {
		t.Fatalf("clean handles flagged: %v", c.Violations())
	}
	c.Handled(0, 1) // duplicate
	if len(c.Violations()) == 0 {
		t.Fatal("duplicate handle not flagged")
	}

	c2 := NewChecker(clk)
	c2.OnCommit("t", 0, 0, 10)
	c2.OnCommit("t", 0, 10, 25)
	if len(c2.Violations()) != 0 {
		t.Fatalf("monotone commits flagged: %v", c2.Violations())
	}
	c2.OnCommit("t", 0, 5, 30) // gap/rewind: starts before the last mark
	if len(c2.Violations()) == 0 {
		t.Fatal("commit rewind not flagged")
	}
	c2.CheckCompleteness(3)
	found := false
	for _, v := range c2.Violations() {
		if v.Invariant == "completeness" {
			found = true
		}
	}
	if !found {
		t.Fatal("completeness shortfall not flagged")
	}
}
