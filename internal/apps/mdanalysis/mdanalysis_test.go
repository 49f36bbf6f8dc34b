package mdanalysis

import (
	"math"
	"testing"
	"testing/quick"

	"gopilot/internal/dist"
)

func TestGenerateTrajectoryShape(t *testing.T) {
	tr := GenerateTrajectory(50, 10, 0.5, dist.NewStream(1))
	if len(tr) != 10 {
		t.Fatalf("frames = %d", len(tr))
	}
	for _, f := range tr {
		if len(f) != 50 {
			t.Fatalf("atoms = %d", len(f))
		}
	}
}

func TestHausdorffIdenticalSetsIsZero(t *testing.T) {
	f := GenerateTrajectory(40, 1, 0.5, dist.NewStream(2))[0]
	if d := HausdorffNaive(f, f); d != 0 {
		t.Fatalf("H(a,a) = %g, want 0", d)
	}
	if d := HausdorffEarlyBreak(f, f); d != 0 {
		t.Fatalf("H_eb(a,a) = %g, want 0", d)
	}
}

func TestHausdorffKnownValue(t *testing.T) {
	a := Frame{{0, 0, 0}, {1, 0, 0}}
	b := Frame{{0, 0, 0}, {4, 0, 0}}
	// directed a→b: max(min(0,4), min(1,3)) = 1... min for (1,0,0) is 3.
	// d(a→b)=3? point (1,0,0): distances 1,3 → min 1. So a→b max = 1.
	// b→a: (0,0,0)→0; (4,0,0)→ min(4,3)=3. symmetric H = 3.
	if d := HausdorffNaive(a, b); math.Abs(d-3) > 1e-12 {
		t.Fatalf("H = %g, want 3", d)
	}
}

// Property: early-break equals naive on random frames (the optimization
// must be exact), and the metric axioms hold (symmetry, identity).
func TestEarlyBreakEqualsNaive(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := GenerateTrajectory(30, 1, 1.0, dist.NewStream(seedA))[0]
		b := GenerateTrajectory(30, 1, 1.0, dist.NewStream(seedB))[0]
		naive := HausdorffNaive(a, b)
		eb := HausdorffEarlyBreak(a, b)
		if math.Abs(naive-eb) > 1e-12 {
			return false
		}
		return math.Abs(HausdorffNaive(a, b)-HausdorffNaive(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyBreakDoesFewerOps(t *testing.T) {
	a := GenerateTrajectory(200, 1, 1.0, dist.NewStream(5))[0]
	b := GenerateTrajectory(200, 1, 1.0, dist.NewStream(6))[0]
	naiveOps := DistanceOps(a, b, false)
	ebOps := DistanceOps(a, b, true)
	if naiveOps != 2*200*200 {
		t.Fatalf("naive ops = %d, want %d", naiveOps, 2*200*200)
	}
	if ebOps >= naiveOps {
		t.Fatalf("early break ops %d not fewer than naive %d", ebOps, naiveOps)
	}
	// The paper's §VI lesson: the algorithmic win is large.
	if float64(ebOps) > 0.8*float64(naiveOps) {
		t.Errorf("early break saved only %d of %d ops", naiveOps-ebOps, naiveOps)
	}
}
