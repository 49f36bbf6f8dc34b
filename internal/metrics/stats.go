// Package metrics provides the measurement substrate used throughout gopilot:
// summary statistics, duration samples, run-length series and simple
// table/CSV emitters. The paper's evaluation methodology
// (Section V, "Performance Characterization") relies on runtime, throughput
// and latency distributions; this package is the common vocabulary for all
// experiments.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds descriptive statistics for a sample of float64 values.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
	P99    float64
	Sum    float64
}

// Summarize computes descriptive statistics for xs. It returns a zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted computes the summary from an already-sorted sample. It
// is the reference Series.Summary is held bit-identical to: that method
// performs this function's floating-point operations, in this order, over
// its runs.
func summarizeSorted(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	s := Summary{N: len(sorted)}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(len(sorted))
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	if len(sorted) > 1 {
		s.Std = math.Sqrt(sq / float64(len(sorted)-1))
	}
	s.Median = Quantile(sorted, 0.5)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted sample using
// linear interpolation between closest ranks. The slice must be sorted in
// ascending order; Quantile panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Durations converts a slice of time.Duration into seconds for use with the
// float64-based statistics helpers.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Speedup returns t1/tN, the classic strong-scaling speedup. It returns 0
// when tN is zero to avoid propagating Inf through result tables.
func Speedup(t1, tN time.Duration) float64 {
	if tN == 0 {
		return 0
	}
	return t1.Seconds() / tN.Seconds()
}

// FormatDuration renders a modeled duration compactly for result tables
// (e.g. "4.2s", "1m30s", "250ms").
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return d.String()
	}
}
