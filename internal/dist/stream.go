package dist

import (
	"math"
	"math/bits"
	"strings"
	"sync"
)

// Stream is a deterministic, splittable, concurrency-safe random stream.
// It is the single source of randomness for every distribution in this
// package: one experiment seed fans out — via Split/SplitLabel — into
// independent sub-streams per infrastructure component, pilot, or unit,
// so a whole run is bit-reproducible from one int64 no matter how the
// consuming goroutines interleave (each sub-stream is consumed by its
// own component; the split tree, not scheduling, fixes the draws).
//
// The generator is SplitMix64 with per-stream gamma, following Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators"
// (OOPSLA'14) — the same construction as Java's SplittableRandom. It is
// implemented here rather than delegated to math/rand so the sequence
// is fixed by this repo, not by the Go release.
type Stream struct {
	mu    sync.Mutex
	state uint64
	gamma uint64 // per-stream increment; always odd
	seed0 uint64 // birth state, so SplitLabel is consumption-independent
}

const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output finalizer (variant 13 of Stafford's
// mixers).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mixGamma derives an odd gamma with enough 0/1 transitions to make the
// Weyl sequence well distributed.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

// NewStream returns the root stream for a seed. Equal seeds yield equal
// streams.
func NewStream(seed int64) *Stream {
	s := mix64(uint64(seed))
	return &Stream{state: s, gamma: goldenGamma, seed0: s}
}

func (s *Stream) nextState() uint64 {
	s.state += s.gamma
	return s.state
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.mu.Lock()
	v := mix64(s.nextState())
	s.mu.Unlock()
	return v
}

// SplitLabel returns the sub-stream for a label (a pilot index, unit
// ordinal, component id…). It neither advances nor reads the parent's
// position: children are derived from the parent's birth state, so the
// same (stream, label) pair always yields the same child, regardless of
// when or from which goroutine it is requested — this is what makes
// goroutine-partitioned experiments bit-reproducible.
func (s *Stream) SplitLabel(label uint64) *Stream {
	s.mu.Lock()
	base, g := s.seed0, s.gamma
	s.mu.Unlock()
	seed, gamma := splitLabel(base, g, label)
	return &Stream{state: seed, gamma: gamma, seed0: seed}
}

// splitLabel is the child derivation itself: the birth state and gamma of
// the label's child of a stream born with (base, g).
func splitLabel(base, g, label uint64) (seed, gamma uint64) {
	seed = mix64(base ^ mix64(label*goldenGamma+1))
	return seed, mixGamma(seed ^ g)
}

// labelKey hashes a string label onto SplitLabel's numeric namespace:
// FNV-1a 64 over the bytes, finalized through mix64 so short labels
// ("a", "b") land far apart. The hash — like the generator — is fixed by
// this repository, so label trees are stable across Go releases.
func labelKey(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Named returns the descendant stream for a path of string labels — the
// seeding spine's equivalent of a filesystem path. Each argument may
// itself be a "/"-separated path, so
//
//	root.Named("infra/hpc/stampede", "queue-wait")
//
// names the same stream as
//
//	root.Named("infra").Named("hpc").Named("stampede").Named("queue-wait")
//
// Like SplitLabel (which it is built on), Named neither advances nor
// reads the receiver's position: the same (stream, path) pair always
// yields the same child, regardless of what else has been drawn or
// derived. Components are therefore *insensitive* to one another —
// adding a new named component to an experiment cannot shift any other
// component's draws. Empty path segments are skipped, so trailing
// slashes do not mint distinct children.
//
// String labels (component names) and numeric SplitLabel ordinals
// (pilot 3, unit 17) compose freely: root.Named("pilot").SplitLabel(3)
// is the canonical address of the third pilot.
//
// The chain of SplitLabel steps is folded numerically: only the stream
// returned is allocated, whatever the depth of the path (a path with no
// segment at all names the receiver, which is returned as it is).
func (s *Stream) Named(path ...string) *Stream {
	s.mu.Lock()
	seed, gamma := s.seed0, s.gamma
	s.mu.Unlock()
	depth := 0
	for _, p := range path {
		for p != "" {
			var seg string
			seg, p, _ = strings.Cut(p, "/")
			if seg != "" {
				seed, gamma = splitLabel(seed, gamma, labelKey(seg))
				depth++
			}
		}
	}
	if depth == 0 {
		return s
	}
	return &Stream{state: seed, gamma: gamma, seed0: seed}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// openFloat64 returns a uniform float64 strictly inside (0, 1) — safe to
// feed through inverse CDFs that diverge at the endpoints.
func (s *Stream) openFloat64() float64 {
	return (float64(s.Uint64()>>11) + 0.5) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via the inverse-CDF
// transform. One uniform draw per variate keeps sub-stream accounting
// simple (no cached spare as in Box–Muller), and the transform is
// monotone in the underlying uniform.
func (s *Stream) NormFloat64() float64 {
	return math.Sqrt2 * math.Erfinv(2*s.openFloat64()-1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Rejection
// sampling keeps the draw exactly uniform (no modulo bias); almost all
// draws consume one Uint64.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	bound := uint64(n)
	limit := ^uint64(0) / bound * bound // largest multiple of bound representable
	for {
		if v := s.Uint64(); v < limit {
			return int(v % bound)
		}
	}
}

// Bernoulli draws one success/failure with probability p, consuming
// exactly one uniform (also when p is 0 or 1, so consumption patterns
// stay rate-independent).
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Int63 makes Stream a math/rand Source, so legacy call sites can wrap a
// sub-stream in rand.New.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed reseeds the stream in place (math/rand Source contract).
func (s *Stream) Seed(seed int64) {
	s.mu.Lock()
	s.state = mix64(uint64(seed))
	s.gamma = goldenGamma
	s.seed0 = s.state
	s.mu.Unlock()
}
