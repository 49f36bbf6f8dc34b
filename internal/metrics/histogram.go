package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket histogram over a [lo, hi) range with
// overflow/underflow buckets. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	lo, hi  float64
	width   float64
	buckets []int
	under   int
	over    int
	acc     Accumulator
}

// NewHistogram creates a histogram with n equal-width buckets spanning
// [lo, hi). It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid histogram range [%g,%g) n=%d", lo, hi, n))
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), buckets: make([]int, n)}
}

// Observe records a value.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.acc.Add(x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard against floating-point edge
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.N()
}

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acc.Mean()
}

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets[i]
}

// String renders a compact ASCII sketch of the distribution, one row per
// non-empty bucket.
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	maxCount := 1
	for _, c := range h.buckets {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(math.Ceil(float64(c)/float64(maxCount)*40)))
		fmt.Fprintf(&b, "[%8.3g,%8.3g) %6d %s\n", h.lo+float64(i)*h.width, h.lo+float64(i+1)*h.width, c, bar)
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.under)
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.over)
	}
	return b.String()
}
