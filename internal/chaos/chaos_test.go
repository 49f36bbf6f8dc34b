package chaos

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
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

// TestCompileSortedAndBounded compiles the default mix (every kind at
// its table weight): the plan is in injection order, every instant lies
// in the horizon, and each fault carries exactly what its row says it
// draws — a recovery window if windowed, a lag if it draws a delay.
func TestCompileSortedAndBounded(t *testing.T) {
	cfg := Config{Horizon: 4 * time.Minute, Counts: map[Kind]int{}}
	for k := Kind(0); k < NumKinds; k++ {
		cfg.Counts[k] = k.Weight()
	}
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
	seen := map[Kind]int{}
	for _, f := range p.Faults {
		seen[f.Kind]++
		r := f.Kind.row()
		if f.At < 0 || f.At >= cfg.Horizon {
			t.Fatalf("%v: At outside [0, horizon)", f)
		}
		if r.windowed != (f.Until > f.At) || !r.windowed && f.Until != 0 {
			t.Fatalf("%v: windowed=%v but until=%v", f, r.windowed, f.Until)
		}
		if r.delay != (f.Delay > 0) || r.delay && (f.Delay < skewMin || f.Delay > skewMax) {
			t.Fatalf("%v: delay=%v but drew %v", f, r.delay, f.Delay)
		}
	}
	if !reflect.DeepEqual(seen, cfg.Counts) {
		t.Fatalf("compiled %v faults per kind, want %v", seen, cfg.Counts)
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

// TestCheckerStreamingInvariants feeds the streaming hooks clean and
// broken sequences: each break is reported once, under its invariant, and
// a redelivery leaves the completeness numerator where it was.
func TestCheckerStreamingInvariants(t *testing.T) {
	handle := func(c *Checker, offsets ...int64) { // partition 0
		for _, o := range offsets {
			c.Handled(0, o)
		}
	}
	cases := []struct {
		name    string
		feed    func(c *Checker)
		want    []string // invariants violated, in order
		handled int
	}{
		{"in-order-two-partitions", func(c *Checker) {
			handle(c, 0, 1)
			c.Handled(1, 0)
			c.Handled(1, 1)
			handle(c, 2)
		}, nil, 5},
		{"redelivery", func(c *Checker) { handle(c, 0, 1, 2, 1) }, []string{"exactly-once"}, 3},
		{"redelivery-then-resume", func(c *Checker) { handle(c, 0, 1, 2, 1, 3) }, []string{"exactly-once"}, 4},
		{"skipped-offset", func(c *Checker) { handle(c, 0, 2, 3) }, []string{"exactly-once"}, 4},
		{"commits-clean", func(c *Checker) {
			c.OnCommit("t", 0, 0, 10)
			c.OnCommit("t", 0, 10, 25)
			c.OnCommit("t", 1, 0, 5)
			c.OnCommit("u", 0, 0, 3)
		}, nil, 0},
		{"commit-rewind", func(c *Checker) {
			c.OnCommit("t", 0, 0, 10)
			c.OnCommit("t", 0, 10, 25)
			c.OnCommit("t", 0, 5, 30)
		}, []string{"cursor-rewind"}, 0},
		{"commit-stalls", func(c *Checker) {
			c.OnCommit("t", 0, 0, 10)
			c.OnCommit("t", 0, 10, 10)
		}, []string{"cursor-rewind"}, 0},
		{"first-commit-not-at-0", func(c *Checker) { c.OnCommit("t", 0, 4, 10) }, []string{"cursor-rewind"}, 0},
		{"acked-clean", func(c *Checker) {
			c.OnAcked("t", 0, 0, 5)
			c.OnAcked("t", 0, 5, 9)
			c.OnAcked("t", 1, 0, 3)
		}, nil, 0},
		{"acked-rewound", func(c *Checker) {
			c.OnAcked("t", 0, 0, 5)
			c.OnAcked("t", 0, 5, 9)
			c.OnAcked("t", 0, 3, 12)
		}, []string{"watermark-monotone"}, 0},
		{"acked-gapped", func(c *Checker) {
			c.OnAcked("t", 0, 0, 5)
			c.OnAcked("t", 0, 7, 9)
		}, []string{"watermark-monotone"}, 0},
		{"acked-first-not-from-0", func(c *Checker) { c.OnAcked("t", 0, 2, 5) }, []string{"watermark-monotone"}, 0},
		{"completeness-shortfall", func(c *Checker) {
			handle(c, 0)
			c.CheckCompleteness(3)
		}, []string{"completeness"}, 1},
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(clk, 2)
			tc.feed(c)
			var got []string
			for _, v := range c.Violations() {
				got = append(got, v.Invariant)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("violations %v, want %v", c.Violations(), tc.want)
			}
			if n := c.HandledCount(); n != tc.handled {
				t.Fatalf("HandledCount = %d, want %d", n, tc.handled)
			}
		})
	}
}

// TestCheckerConcurrentHooks drives the streaming hooks from one goroutine
// per partition at once (run it under -race): per-partition ownership
// keeps every check exact, so a clean stream reports nothing and every
// delivery counts.
func TestCheckerConcurrentHooks(t *testing.T) {
	const parts, n = 4, 1000
	c := NewChecker(vclock.NewVirtual(vclock.Epoch), parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := int64(0); o < n; o++ {
				c.Handled(p, o)
				c.OnCommit("t", p, o, o+1)
				c.OnAcked("t", p, o, o+1)
				_ = c.HandledCount()
			}
		}()
	}
	wg.Wait()
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("clean concurrent streams flagged: %v", v[:min(len(v), 3)])
	}
	if got := c.HandledCount(); got != parts*n {
		t.Fatalf("HandledCount = %d, want %d", got, parts*n)
	}
}
