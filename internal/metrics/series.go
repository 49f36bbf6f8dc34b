package metrics

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Series is an append-only, concurrency-safe collection of finite float64
// samples with on-demand summarization. It backs most experiment
// measurements.
//
// Samples are held as runs: one bit-equal (math.Float64bits, so +0 and -0
// never merge) to the sample added before it extends that run, so memory
// is O(runs), not O(samples). A stream's latency series compresses ~500:1
// this way (one stamp per publish call and partition, one instant per
// recorded batch); a series whose neighbours all differ (a handler that
// sleeps per message) does not compress and costs 16 bytes a sample
// instead of 8 — the largest such holds 60 samples in the exhibits, 600
// in the lightsource example.
//
// Summary is bit-identical to Summarize over the expanded sample: it
// depends only on the multiset added, never on the order or interleaving
// of the Adds (only the run count — the memory — does).
type Series struct {
	mu   sync.Mutex
	runs []run
	n    int
}

// run is n consecutive samples of value x.
type run struct {
	x float64
	n int
}

// NewSeries creates an empty sample series.
func NewSeries() *Series { return &Series{} }

// Add appends a sample.
func (s *Series) Add(x float64) { s.AddN(x, 1) }

// AddN appends n copies of x under one lock acquisition — the bulk path
// for callers that account a whole stretch of a message batch at once.
func (s *Series) AddN(x float64, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	if last := len(s.runs) - 1; last >= 0 && math.Float64bits(s.runs[last].x) == math.Float64bits(x) {
		s.runs[last].n += n
	} else {
		s.runs = append(s.runs, run{x, n})
	}
	s.n += n
	s.mu.Unlock()
}

// Summary summarizes the samples collected so far: summarizeSorted over
// the runs. Each accumulation adds a run's value once per sample, never
// x·n, and sq += d*d keeps that shape (a fused multiply-add rounds once):
// the floating-point operations Summarize performs on the expanded sorted
// sample, in its order.
func (s *Series) Summary() Summary {
	s.mu.Lock()
	runs, n := slices.Clone(s.runs), s.n
	s.mu.Unlock()
	if n == 0 {
		return Summary{}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.x, b.x) })
	sum := Summary{N: n, Min: runs[0].x, Max: runs[len(runs)-1].x}
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			sum.Sum += r.x
		}
	}
	sum.Mean = sum.Sum / float64(n)
	var sq float64
	for _, r := range runs {
		d := r.x - sum.Mean
		for i := 0; i < r.n; i++ {
			sq += d * d
		}
	}
	if n > 1 {
		sum.Std = math.Sqrt(sq / float64(n-1))
	}
	sum.Median = runQuantile(runs, n, 0.5)
	sum.P95 = runQuantile(runs, n, 0.95)
	sum.P99 = runQuantile(runs, n, 0.99)
	return sum
}

// runQuantile is Quantile over sorted runs holding n samples: the same
// interpolation, its two ranks resolved through cumulative counts.
func runQuantile(sorted []run, n int, q float64) float64 {
	at := func(rank int) float64 {
		for _, r := range sorted {
			if rank < r.n {
				return r.x
			}
			rank -= r.n
		}
		panic("metrics: rank beyond series length")
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}
