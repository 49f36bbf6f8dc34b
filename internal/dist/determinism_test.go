package dist

import (
	"sync"
	"testing"
)

// TestSameSeedSameSequence is the reproducibility contract every
// experiment relies on: rebuilding a distribution from the same seed
// replays the identical draw sequence, bit for bit.
func TestSameSeedSameSequence(t *testing.T) {
	builders := []struct {
		name string
		mk   func() Dist
	}{
		{"normal", func() Dist { return NewNormal(60, 5, 42) }},
		{"lognormal", func() Dist { return NewLogNormal(600, 1.0, 42) }},
		{"bernoulli", func() Dist { return BernoulliFrom(NewStream(42), 0.3) }},
	}
	for _, tc := range builders {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(), tc.mk()
			for i := 0; i < 10000; i++ {
				if x, y := a.Sample(), b.Sample(); x != y {
					t.Fatalf("draw %d: %v != %v", i, x, y)
				}
			}
		})
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := NewLogNormal(600, 1.0, 1)
	b := NewLogNormal(600, 1.0, 2)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced 100 identical draws")
}

// TestSplitLabelConsumptionIndependent pins the property SplitLabel is
// for: a labeled child is a pure function of (root seed, label), no
// matter how much the parent or its other children have been consumed.
func TestSplitLabelConsumptionIndependent(t *testing.T) {
	root := NewStream(7)
	early := root.SplitLabel(3)
	var earlyDraws []uint64
	for i := 0; i < 100; i++ {
		earlyDraws = append(earlyDraws, early.Uint64())
	}

	// Consume the parent and a sibling heavily, then re-derive label 3.
	for i := 0; i < 1000; i++ {
		root.Uint64()
	}
	sib := root.SplitLabel(4)
	for i := 0; i < 500; i++ {
		sib.Uint64()
	}

	late := root.SplitLabel(3)
	for i, want := range earlyDraws {
		if got := late.Uint64(); got != want {
			t.Fatalf("draw %d: re-derived child gave %d, want %d", i, got, want)
		}
	}
}

func TestSplitLabelChildrenIndependent(t *testing.T) {
	root := NewStream(7)
	a := root.SplitLabel(0)
	b := root.SplitLabel(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("labels 0 and 1 collided on %d of 1000 draws", same)
	}
}

// goroutinePartitionedRun models how an experiment fans one seed out:
// worker i (a pilot, a unit generator…) owns sub-stream SplitLabel(i)
// and samples from it concurrently with every other worker. The result
// matrix must depend only on the seed — not on goroutine interleaving.
// Run under -race this also proves that deriving from a shared root is
// race-free.
func goroutinePartitionedRun(seed int64, workers, samples int) [][]float64 {
	root := NewStream(seed)
	out := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := LogNormalFrom(root.SplitLabel(uint64(w)), 100, 0.5)
			row := make([]float64, samples)
			for i := range row {
				row[i] = d.Sample()
			}
			out[w] = row
		}(w)
	}
	wg.Wait()
	return out
}

func TestGoroutinePartitionedDeterminism(t *testing.T) {
	const workers, samples = 16, 2000
	a := goroutinePartitionedRun(99, workers, samples)
	b := goroutinePartitionedRun(99, workers, samples)
	for w := 0; w < workers; w++ {
		for i := 0; i < samples; i++ {
			if a[w][i] != b[w][i] {
				t.Fatalf("worker %d draw %d: %v != %v across same-seed runs", w, i, a[w][i], b[w][i])
			}
		}
	}
	c := goroutinePartitionedRun(100, workers, samples)
	diff := false
	for w := 0; w < workers && !diff; w++ {
		for i := 0; i < samples; i++ {
			if a[w][i] != c[w][i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("seeds 99 and 100 produced identical matrices")
	}
}

// TestConcurrentSampleShared pins the ownership contract: a stream is not
// locked, so goroutines share randomness by deriving their own children
// from one shared root — derivation reads only the root's birth fields —
// and each draws only from its own. Every child's sequence must be
// bit-identical to the same derivation run sequentially, and -race must
// stay quiet.
func TestConcurrentSampleShared(t *testing.T) {
	const workers, samples = 8, 2000
	root := NewStream(5)
	root.Uint64() // the owner has drawn from it: derivation must not care
	draw := func(w int) []float64 {
		d := LogNormalFrom(root.Named("worker").SplitLabel(uint64(w)), 100, 0.8)
		row := make([]float64, samples)
		for i := range row {
			row[i] = d.Sample()
		}
		return row
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = draw(w)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		want := draw(w)
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d draw %d: concurrent %v, sequential %v", w, i, got[w][i], want[i])
			}
		}
	}
}
