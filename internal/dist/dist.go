// Package dist provides the seeded probability distributions that drive
// every stochastic element of the simulated infrastructure: exogenous
// batch-queue waits, VM boot delays, HTC match delays, serverless
// cold-starts, synthetic task service times, and preemption draws. The
// paper's evaluation (arXiv:2002.09009, §V) models these as lognormal /
// normal processes; its methodology demands that any experiment be
// reproducible from a single seed, which is what the splittable Stream
// underneath each distribution guarantees.
//
// All distributions are concurrency-safe: many goroutines may call
// Sample on the same value, and the sequence of draws each *component*
// sees is fixed by its own sub-stream, not by goroutine interleaving.
package dist

import (
	"math"
	"math/rand"
)

// Dist is a real-valued probability distribution. Sample draws the next
// variate from the distribution's own deterministic stream; Mean and
// Quantile expose the analytical moments the white-box performance
// models need (perfmodel's makespan bounds reason about means and
// max-of-n quantiles without burning samples).
type Dist interface {
	// Sample draws the next variate.
	Sample() float64
	// Mean returns the distribution mean.
	Mean() float64
	// Quantile returns the p-quantile (inverse CDF) for p in [0, 1].
	Quantile(p float64) float64
}

// Constant returns the degenerate distribution that always yields v —
// the workhorse of unit tests, which need exogenous delays pinned.
func Constant(v float64) Dist { return constant(v) }

type constant float64

func (c constant) Sample() float64            { return float64(c) }
func (c constant) Mean() float64              { return float64(c) }
func (c constant) Quantile(p float64) float64 { return float64(c) }

// Normal is a normal distribution drawing from its own stream.
type Normal struct {
	mean, sd float64
	s        *Stream
}

// NewNormal returns a Normal(mean, sd²) seeded independently of every
// other distribution built from a different seed.
func NewNormal(mean, sd float64, seed int64) *Normal {
	return NormalFrom(NewStream(seed), mean, sd)
}

// NormalFrom builds a Normal on an existing (sub-)stream — the hook for
// experiments that fan one root seed out into per-component streams.
func NormalFrom(s *Stream, mean, sd float64) *Normal {
	return &Normal{mean: mean, sd: math.Abs(sd), s: s}
}

func (n *Normal) Sample() float64 { return n.mean + n.sd*n.s.NormFloat64() }
func (n *Normal) Mean() float64   { return n.mean }

func (n *Normal) Quantile(p float64) float64 {
	return n.mean + n.sd*math.Sqrt2*math.Erfinv(2*clamp01(p)-1)
}

// LogNormal is a lognormal distribution parameterized — as the paper's
// queue-wait models are — by its *actual* mean and coefficient of
// variation, not by the underlying normal's (mu, sigma).
type LogNormal struct {
	mu, sigma float64 // parameters of the underlying normal
	mean      float64
	s         *Stream
}

// NewLogNormal returns a lognormal with the given mean and coefficient
// of variation (sd/mean). cv <= 0 degenerates to a constant at mean.
func NewLogNormal(mean, cv float64, seed int64) *LogNormal {
	return LogNormalFrom(NewStream(seed), mean, cv)
}

// LogNormalFrom builds a LogNormal on an existing (sub-)stream.
func LogNormalFrom(s *Stream, mean, cv float64) *LogNormal {
	if mean <= 0 {
		mean = math.SmallestNonzeroFloat64
	}
	if cv < 0 {
		cv = 0
	}
	sigma2 := math.Log(1 + cv*cv)
	return &LogNormal{
		mu:    math.Log(mean) - sigma2/2,
		sigma: math.Sqrt(sigma2),
		mean:  mean,
		s:     s,
	}
}

func (l *LogNormal) Sample() float64 {
	return math.Exp(l.mu + l.sigma*l.s.NormFloat64())
}

func (l *LogNormal) Mean() float64 { return l.mean }

func (l *LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.mu + l.sigma*math.Sqrt2*math.Erfinv(2*clamp01(p)-1))
}

// BernoulliDist is the {0, 1} distribution with success probability P.
type BernoulliDist struct {
	p float64
	s *Stream
}

// BernoulliFrom builds a Bernoulli on an existing (sub-)stream.
func BernoulliFrom(s *Stream, p float64) *BernoulliDist {
	return &BernoulliDist{p: clamp01(p), s: s}
}

func (b *BernoulliDist) Sample() float64 {
	if b.s.Float64() < b.p {
		return 1
	}
	return 0
}

func (b *BernoulliDist) Mean() float64 { return b.p }

func (b *BernoulliDist) Quantile(p float64) float64 {
	if clamp01(p) > 1-b.p {
		return 1
	}
	return 0
}

// Zipf draws Zipf-distributed uint64s in [0, imax] on a Stream — the
// skewed-popularity generator synthetic corpora need (wordcount's
// vocabulary). It wraps math/rand's rejection-inversion sampler, which
// is covered by the Go 1 compatibility promise, over our own Source, so
// the sequence is fixed by (stream, parameters) alone. Draws are
// concurrency-safe because the sampler is stateless between draws and
// all randomness flows through the locked Stream.
type Zipf struct {
	z *rand.Zipf
}

// ZipfFrom builds a Zipf(s, v, imax) sampler on an existing
// (sub-)stream; s > 1 is the skew exponent and v >= 1 the offset, as in
// math/rand.NewZipf.
func ZipfFrom(st *Stream, s, v float64, imax uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(rand.New(st), s, v, imax)}
}

// Uint64 draws the next variate.
func (z *Zipf) Uint64() uint64 { return z.z.Uint64() }

// Unseeded returns the deterministic fallback stream for a component
// whose configuration omitted one: a child of the zero-seed root under
// "unseeded"/<path>. Components use it in their config-defaulting so no
// package ever has to mint an integer seed; real experiments should
// always wire a labeled child of their own root instead (see Named).
func Unseeded(path ...string) *Stream {
	return NewStream(0).Named("unseeded").Named(path...)
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
