package plan

import (
	"math"
	"time"

	"gopilot/internal/dist"
)

// Backoff shapes the retry delay: Initial·Factor^attempt, capped at Max,
// then spread by ±Jitter. The jitter draw comes from the unit's own
// labeled retry stream, never an ambient source, so the whole retry
// timeline is fixed by the experiment seed — two same-seed runs back off
// at bit-identical virtual instants. Delays are always positive: a retry
// can never re-enter the queue at the instant it failed, which is what
// rules out the zero-delay retry storm against a dead backend.
type Backoff struct {
	// Initial is the delay before the first retry (default 5s).
	Initial time.Duration
	// Max caps the grown delay before jitter (default 5m).
	Max time.Duration
	// Factor is the per-retry growth factor (default 2).
	Factor float64
	// Jitter is the relative spread: the delay is scaled by a factor
	// uniform in [1-Jitter, 1+Jitter]. Zero takes the default 0.2 (values
	// >= 1 are clamped to it); negative disables jitter, making Delay
	// draw nothing from the stream.
	Jitter float64
}

// withDefaults fills zero fields with the documented defaults.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 5 * time.Second
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Minute
	}
	if !(b.Factor >= 1) { // NaN included
		b.Factor = 2
	}
	if b.Jitter == 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	return b
}

// Delay returns the backoff before retry number attempt (0-based: the
// first retry gets attempt 0). One uniform draw is consumed from stream
// per call when Jitter is non-zero, so a unit's retry sequence continues
// deterministically across consecutive failures.
func (b Backoff) Delay(attempt int, stream *dist.Stream) time.Duration {
	d := float64(b.Initial)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*stream.Float64()-1)
	}
	if d < 1 {
		d = 1 // never zero: eligibility must move strictly forward
	}
	if d >= math.MaxInt64 {
		return math.MaxInt64 // float64(MaxInt64) is 2⁶³: converting it would wrap negative
	}
	return time.Duration(d)
}
