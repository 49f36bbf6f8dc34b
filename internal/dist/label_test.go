package dist

import (
	"math"
	"testing"
)

func first(s *Stream, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = s.Uint64()
	}
	return out
}

func equalSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNamedPathEquivalence pins the label grammar: one slash-separated
// path, several arguments, and chained Named calls must all address the
// same stream, and empty segments must not mint distinct children.
func TestNamedPathEquivalence(t *testing.T) {
	root := NewStream(42)
	want := first(root.Named("infra/hpc/stampede/queue-wait"), 8)
	variants := map[string]*Stream{
		"args":     root.Named("infra", "hpc", "stampede", "queue-wait"),
		"chained":  root.Named("infra").Named("hpc").Named("stampede").Named("queue-wait"),
		"mixed":    root.Named("infra/hpc", "stampede/queue-wait"),
		"trailing": root.Named("infra/hpc/stampede/queue-wait/"),
		"doubled":  root.Named("infra//hpc/stampede//queue-wait"),
	}
	for name, s := range variants {
		if got := first(s, 8); !equalSeq(got, want) {
			t.Errorf("%s: Named variant draws diverge from canonical path", name)
		}
	}
}

// TestNamedConsumptionIndependent is the spine's core contract: deriving
// a named child neither depends on nor disturbs the parent's position or
// its other children — so adding a component never shifts another's draws.
func TestNamedConsumptionIndependent(t *testing.T) {
	rootA := NewStream(7)
	early := first(rootA.Named("manager"), 8)

	rootB := NewStream(7)
	// Exercise rootB heavily first: direct draws, sibling components, a
	// numeric split — then derive the same child.
	rootB.Uint64()
	rootB.Uint64()
	first(rootB.Named("infra/htc/osg"), 5)
	first(rootB.Named("manager").SplitLabel(3), 5)
	late := first(rootB.Named("manager"), 8)

	if !equalSeq(early, late) {
		t.Fatal("Named child depends on parent consumption or sibling derivation")
	}
}

// TestNamedChildrenDistinct guards against label-hash collisions between
// the canonical component names used across the repo.
func TestNamedChildrenDistinct(t *testing.T) {
	root := NewStream(1)
	labels := []string{
		"infra/hpc/stampede", "infra/hpc/comet", "infra/htc/osg",
		"infra/cloud/ec2", "infra/yarn/yarn", "manager", "pilot", "unit",
		"queue-wait", "match-delay", "boot-delay", "alloc-delay", "evict",
		"app/rexchange", "app/enkf", "app/kmeans", "a", "b",
	}
	seen := make(map[uint64]string)
	for _, l := range labels {
		v := root.Named(l).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("labels %q and %q yield identical first draws", prev, l)
		}
		seen[v] = l
	}
}

// TestSeedResetsSplitLabelChildren is the regression test for the
// math/rand Source compat method: reseeding a stream in place must also
// reset its birth state (seed0), so a reseeded stream's SplitLabel and
// Named children are bit-identical to a freshly constructed stream's.
func TestSeedResetsSplitLabelChildren(t *testing.T) {
	used := NewStream(1)
	// Scramble the internal state reachable before reseeding: position
	// (state) by draws; SplitLabel reads but must not disturb it.
	used.Uint64()
	used.Uint64()
	used.SplitLabel(9)
	used.Seed(99)

	fresh := NewStream(99)
	if !equalSeq(first(used, 8), first(fresh, 8)) {
		t.Fatal("reseeded stream's direct draws diverge from a fresh stream's")
	}
	if !equalSeq(first(used.SplitLabel(17), 8), first(fresh.SplitLabel(17), 8)) {
		t.Fatal("reseeded stream's SplitLabel children diverge from a fresh stream's")
	}
	if !equalSeq(first(used.Named("pilot", "3"), 8), first(fresh.Named("pilot", "3"), 8)) {
		t.Fatal("reseeded stream's Named children diverge from a fresh stream's")
	}
}

func TestIntn(t *testing.T) {
	s := NewStream(5)
	const n = 7
	counts := make([]int, n)
	const total = 70000
	for i := 0; i < total; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(total) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Intn(%d): value %d drawn %d times, want ≈%.0f", n, v, c, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	a := ZipfFrom(NewStream(11).Named("corpus"), 1.3, 1, 999)
	b := ZipfFrom(NewStream(11).Named("corpus"), 1.3, 1, 999)
	zero := 0
	for i := 0; i < 20000; i++ {
		va, vb := a.Uint64(), b.Uint64()
		if va != vb {
			t.Fatalf("same-stream Zipf draws diverge at %d: %d vs %d", i, va, vb)
		}
		if va > 999 {
			t.Fatalf("Zipf draw %d exceeds imax", va)
		}
		if va == 0 {
			zero++
		}
	}
	// Rank 0 of a Zipf(1.3) over 1000 symbols carries far more than the
	// uniform share (1/1000); a loose floor catches a broken sampler.
	if zero < 2000 {
		t.Errorf("rank-0 frequency %d/20000 — distribution not Zipf-skewed", zero)
	}
}

func TestUnseededDeterministicAndLabeled(t *testing.T) {
	a := Unseeded("infra", "hpc", "x")
	b := Unseeded("infra/hpc/x")
	if !equalSeq(first(a, 4), first(b, 4)) {
		t.Fatal("Unseeded is not stable across equivalent paths")
	}
	if Unseeded("a").Uint64() == Unseeded("b").Uint64() {
		t.Fatal("Unseeded ignores its path")
	}
	// The fallback must not collide with a genuine zero-seed spine root.
	if NewStream(0).Uint64() == Unseeded().Uint64() {
		t.Fatal("Unseeded collides with the bare zero-seed root")
	}
}
