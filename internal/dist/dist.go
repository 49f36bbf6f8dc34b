// Package dist provides the seeded probability distributions that drive
// every stochastic element of the simulated infrastructure: queue waits,
// boot, match and cold-start delays, task service times, preemption draws
// and Zipf corpora. The paper's evaluation (arXiv:2002.09009, §V) models
// them as lognormal / normal processes, and its methodology demands that
// an experiment be reproducible from one seed: the splittable Stream under
// every distribution guarantees it, and as no sampler delegates to
// math/rand, the draws are fixed by this repository, not by the Go release.
//
// A stream, and any distribution built on one, belongs to one participant
// at a time: nothing here is locked. Code shares randomness by deriving a
// child with SplitLabel or Named, which read only the parent's birth
// fields, never by passing a pointer between goroutines; the draws each
// component sees are fixed by its own sub-stream, not by interleaving.
package dist

import (
	"fmt"
	"math"
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

// Zipf draws Zipf-distributed uint64s in [0, imax] on a Stream (wordcount's
// vocabulary), bit-identical to math/rand.NewZipf's on the same Stream:
// math/rand's constants, h, hinv, uniform and rejection-inversion loop are
// copied expression for expression. A table spares most draws its Exp and
// Log: for ranks k < K = min(imax+1, 2¹⁶), rank k starts at cut[2k] = h(k−½)
// and the loop's first test accepts it from cut[2k+1] = h(k−s). h and hinv
// are accurate to ≈ 1e-14 relative while h is a normal float, so a uniform
// ur at least g = 1e-9·|ur| + 1e-300 inside [cut[2k+1], cut[2k+2]) puts the
// loop's x strictly inside (k−s, k+½), where its first iteration returns k.
// Every other ur runs the loop: ≈ 1.8 % of draws at imax 99, 499 and 49 999.
// The differential tests pin the equality on the build host (amd64, where
// Go fuses no x*y+z at GOAMD64=v1). The table is immutable after ZipfFrom;
// the draws are its stream's, so a Zipf has that stream's one owner.
type Zipf struct {
	st    *Stream
	cut   []float64 // -Inf, h(−s), h(½), h(1−s), …, h(K−½), +Inf
	guide []uint32  // per equal-width ur cell: the last cut at or below its low edge
	// math/rand's constants, then lo and invW: ur's guide cell is (ur−lo)·invW
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm, lo, invW float64
}

// ZipfFrom builds a Zipf(s, v, imax) sampler on a (sub-)stream: s > 1 and
// v >= 1 as in math/rand.NewZipf; any other s or v panics, NaN and +Inf too.
func ZipfFrom(st *Stream, s, v float64, imax uint64) *Zipf {
	if !(1 < s && s < math.Inf(1) && 1 <= v && v < math.Inf(1)) {
		panic(fmt.Sprintf("dist: Zipf needs 1 < s < +Inf and 1 <= v < +Inf, got s=%v v=%v", s, v))
	}
	z := &Zipf{st: st, v: v, q: s, oneminusQ: 1.0 - s, oneminusQinv: 1.0 / (1.0 - s)}
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	n := int(min(imax, 1<<16-1)) + 1
	sc := min(max(z.s, -0.5), 0.5) // an accept band is empty or a whole rank, never out of order
	z.cut = make([]float64, 2*n+2)
	z.cut[0], z.cut[2*n+1] = math.Inf(-1), math.Inf(1)
	for k := 0; k < n; k++ {
		z.cut[2*k+1], z.cut[2*k+2] = z.h(float64(k)-sc), z.h(float64(k)+0.5)
	}
	z.lo = z.hxm + z.hx0minusHxm
	w := (min(z.hxm, z.cut[2*n]) - z.lo) / float64(n)
	z.invW, z.guide = 1/w, make([]uint32, n)
	for i, j := 0, uint32(0); i < n; i++ {
		for z.cut[j+1] <= z.lo+float64(i)*w {
			j++
		}
		z.guide[i] = j
	}
	return z
}

func (z *Zipf) h(x float64) float64    { return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv }
func (z *Zipf) hinv(x float64) float64 { return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v }

// Uint64 draws the next variate.
func (z *Zipf) Uint64() uint64 { return z.draw(z.st.Int63()) }

// draw is Uint64 with its first Int63 given. u is math/rand's Float64:
// Int63/2⁶³, drawn again when it rounds to 1.
func (z *Zipf) draw(n int64) uint64 {
	for ; ; n = z.st.Int63() {
		u := float64(n) / (1 << 63)
		if u == 1 {
			continue
		}
		ur := z.hxm + u*z.hx0minusHxm
		j := z.guide[min(uint((ur-z.lo)*z.invW), uint(len(z.guide)-1))]
		for ur >= z.cut[j+1] {
			j++
		}
		if g := 1e-9*math.Abs(ur) + 1e-300; j&1 == 1 && ur >= z.cut[j]+g && ur < z.cut[j+1]-g {
			return uint64(j / 2)
		}
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s || ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

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
