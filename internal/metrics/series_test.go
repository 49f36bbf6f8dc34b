package metrics

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"
)

// sameBits reports whether two summaries agree in every field, floats
// compared by bit pattern: the Series contract is identity with
// Summarize, not closeness.
func sameBits(a, b Summary) bool {
	fa := [...]float64{a.Mean, a.Std, a.Min, a.Max, a.Median, a.P95, a.P99, a.Sum}
	fb := [...]float64{b.Mean, b.Std, b.Min, b.Max, b.Median, b.P95, b.P99, b.Sum}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.N == b.N
}

func TestSeriesConcurrent(t *testing.T) {
	s := NewSeries()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(1)
			}
		}()
	}
	wg.Wait()
	if s.Summary().N != 800 {
		t.Fatalf("N = %d, want 800", s.Summary().N)
	}
	if s.Summary().Mean != 1 {
		t.Fatalf("Mean = %g, want 1", s.Summary().Mean)
	}

	// Different values in racing order: the interleaving decides how many
	// runs the series holds, never what it summarizes to.
	sample := func(g, i int) float64 { return float64(g)*0.1 + float64(i%7)*1e-3 }
	raced, sequential := NewSeries(), NewSeries()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				raced.Add(sample(g, i))
			}
		}(g)
		for i := 0; i < 100; i++ {
			sequential.Add(sample(g, i))
		}
	}
	wg.Wait()
	if got, want := raced.Summary(), sequential.Summary(); !sameBits(got, want) {
		t.Fatalf("raced Summary = %+v, sequential = %+v", got, want)
	}
}

// TestSeriesFootprintFollowsRuns pins the memory contract: a series costs
// what its runs cost, not what its samples would. 10⁶ samples in 10³ runs
// is 16 KB of runs plus append's growth; one float64 per sample was 16 MiB.
func TestSeriesFootprintFollowsRuns(t *testing.T) {
	s := NewSeries()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < 1000; r++ {
		for i := 0; i < 1000; i++ {
			s.Add(float64(r) * 1e-3)
		}
	}
	runtime.ReadMemStats(&after)
	if s.Summary().N != 1_000_000 {
		t.Fatalf("N = %d, want 1000000", s.Summary().N)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("10⁶ samples in 10³ runs allocated %d B", got)
	if got >= 64<<10 {
		t.Fatalf("allocated %d B, want < 64 KiB", got)
	}
}

// fuzzSeriesMaxSamples caps a script's expanded sample (the oracle's
// cost); the E13 trace in the corpus needs 10⁶.
const fuzzSeriesMaxSamples = 1 << 20

// driveSeries plays script into a Series and into the expanded sample it
// stands for. A script is a sequence of ops, one header byte h each. h&1
// picks the value: 0 reads two bytes onto a 10⁻⁴ grid around zero (so
// repeats, adjacent and not, are common), 1 reads eight bytes of raw
// float64 bits (dropped unless finite; -0 folds to +0, whose order against
// +0 sort.Float64s leaves unspecified, so there is no oracle to match).
// h>>1&3 picks the count: Add, AddN of one byte, AddN of twelve bits, or
// AddN of a non-positive n (which must add nothing).
func driveSeries(script []byte) (*Series, []float64) {
	s := NewSeries()
	var xs []float64
	take := func(n int) []byte {
		if len(script) < n {
			script = nil
			return make([]byte, n)
		}
		b := script[:n]
		script = script[n:]
		return b
	}
	for len(script) > 0 {
		h := take(1)[0]
		var x float64
		if h&1 == 0 {
			x = float64(binary.BigEndian.Uint16(take(2)))*1e-4 - 1
		} else {
			x = math.Float64frombits(binary.BigEndian.Uint64(take(8)))
		}
		n := 1
		switch h >> 1 & 3 {
		case 1:
			n = int(take(1)[0])
		case 2:
			n = int(binary.BigEndian.Uint16(take(2)) & 0xfff)
		case 3:
			n = -int(take(1)[0])
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || len(xs)+n > fuzzSeriesMaxSamples {
			continue
		}
		if x == 0 {
			x = 0 // -0 → +0
		}
		if h>>1&3 == 0 {
			s.Add(x)
		} else {
			s.AddN(x, n)
		}
		for i := 0; i < n; i++ {
			xs = append(xs, x)
		}
	}
	return s, xs
}

// FuzzSeriesSummaryMatchesSamples holds the run-length Series to its
// model: whatever script of Add/AddN built it, Summary is bit-identical
// to Summarize over the expanded sample and Len is the sample count. The
// committed corpus under testdata/fuzz adds an E13 trace (the 10⁶-message
// exhibit's 1 926 latency runs, long runs split across several AddN) and
// an all-distinct one, where nothing coalesces.
func FuzzSeriesSummaryMatchesSamples(f *testing.F) {
	f.Add([]byte{})                                                                       // none
	f.Add([]byte{0, 0x30, 0x39})                                                          // one sample
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 9, 9, 0, 1, 2})                                     // A A B A
	f.Add([]byte{2, 1, 2, 200, 4, 9, 9, 0x0f, 0xff, 6, 1, 2, 3, 2, 1, 2, 0})              // AddN: 200, 4095, -3, 0
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0x27, 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 0}) // -0, grid 0, +0
	f.Fuzz(func(t *testing.T, script []byte) {
		s, xs := driveSeries(script)
		if s.Summary().N != len(xs) {
			t.Fatalf("N = %d, want %d", s.Summary().N, len(xs))
		}
		if got, want := s.Summary(), Summarize(xs); !sameBits(got, want) {
			t.Fatalf("Summary = %+v\nSummarize(expanded) = %+v", got, want)
		}
	})
}
