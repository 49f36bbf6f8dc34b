package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// streamSource is a Stream as a math/rand Source: the reference samplers
// below draw from it what Zipf draws from the Stream itself.
type streamSource struct{ *Stream }

func (streamSource) Seed(int64) { panic("dist: a reference stream is never reseeded") }

// firstThen is a math/rand Source that yields n once and then continues
// from st: the way to hand the reference one chosen uniform.
type firstThen struct {
	n   int64
	fed bool
	st  *Stream
}

func (f *firstThen) Int63() int64 {
	if f.fed {
		return f.st.Int63()
	}
	f.fed = true
	return f.n
}

func (*firstThen) Seed(int64) { panic("dist: a reference stream is never reseeded") }

// FuzzZipfMatchesMathRand holds Zipf to math/rand's sampler over an
// identical stream, draw for draw. The committed corpus holds twelve
// shapes: skew 1.3 at imax 0, 1, 99, 499 and 49 999 (the vocabularies the
// exhibits and the harness draw), a table-sized and a far larger
// vocabulary at skews 1.01 and 1.1, imax 2⁴⁰ at 1.5, and 2.5 with v = 3.5;
// two whose squeeze constant s leaves (−½, ½), so that ZipfFrom clamps
// it: 0.50006 at (1.001, 10⁹) and −Inf at (300, 1000); and (113.3, 504),
// whose cuts are subnormal, where the fuzzer found a draw one rank off
// before g gained its absolute term. Skews outside [1.001, 10⁴] and
// offsets above 10⁹ are skipped: no corpus is near them, and toward them
// math/rand's own arithmetic breaks down.
func FuzzZipfMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, s, v float64, imax uint64) {
		if !(1.001 <= s && s <= 1e4 && 1 <= v && v <= 1e9) {
			t.Skip()
		}
		got := ZipfFrom(NewStream(seed), s, v, imax)
		want := rand.NewZipf(rand.New(streamSource{NewStream(seed)}), s, v, imax)
		for i := 0; i < 10000; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Zipf(s=%v, v=%v, imax=%d), seed %d: draw %d is %d, math/rand's %d", s, v, imax, seed, i, g, w)
			}
		}
	})
}

// TestZipfCutProbes aims at the table's edges, where a sampler that reads
// a cut wrong would part from math/rand: at every cut, the 129 uniforms the
// stream can yield that lie nearest it are each fed to both samplers as
// their first uniform, with an identical stream behind it for any redraw.
// Both must return the same rank and consume the same number of draws.
func TestZipfCutProbes(t *testing.T) {
	base := NewStream(3).Named("zipf-probe")
	for _, imax := range []uint64{99, 499} {
		z := ZipfFrom(base, 1.3, 1, imax)
		for c, cut := range z.cut[1 : len(z.cut)-1] {
			for _, n := range int63sNear((cut - z.hxm) / z.hx0minusHxm) {
				z.st = base.SplitLabel(uint64(n))
				rest := base.SplitLabel(uint64(n))
				want := rand.NewZipf(rand.New(&firstThen{n: n, st: rest}), 1.3, 1, imax).Uint64()
				if got := z.draw(n); got != want || z.st.Uint64() != rest.Uint64() {
					t.Fatalf("imax %d, cut %d (%v), Int63 %#x: rank %d, math/rand's %d (or the draws consumed differ)", imax, c+1, cut, n, got, want)
				}
			}
		}
	}
}

// int63sNear returns the 129 Int63 values whose uniforms Int63/2⁶³ lie
// nearest u: 64 below, the one at or just below u, and 64 above, clipped
// to [0, 1). Every integer-valued float64 below 2⁶³ is one such value, and
// the next one is a unit away below 2⁵³ and an ulp away above it.
func int63sNear(u float64) []int64 {
	step := func(f, dir float64) float64 {
		if g := math.Nextafter(f, dir*math.Inf(1)); math.Abs(g-f) >= 1 {
			return g
		}
		return f + dir
	}
	f := math.Floor(min(max(u, 0), math.Nextafter(1, 0)) * (1 << 63))
	for i := 0; i < 64 && f > 0; i++ {
		f = step(f, -1)
	}
	var out []int64
	for i := 0; i <= 128 && f < 1<<63; i++ {
		out = append(out, int64(f))
		f = step(f, 1)
	}
	return out
}

// TestZipfFromRejectsBadParameters pins that a bad skew or offset fails
// where the sampler is built, with the values in the message: math/rand
// returns a nil sampler for s <= 1 or v < 1, whose first draw panics far
// from the caller, and accepts NaN and +Inf, on which it never returns.
func TestZipfFromRejectsBadParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ s, v float64 }{
		{1, 1}, {0.5, 1}, {nan, 1}, {inf, 1}, {1.3, 0.5}, {1.3, nan}, {1.3, inf},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dist: ") || !strings.Contains(msg, fmt.Sprintf("s=%v v=%v", c.s, c.v)) {
					t.Errorf("ZipfFrom(s=%v, v=%v) panicked with %q, want a dist: message naming s and v", c.s, c.v, msg)
				}
			}()
			ZipfFrom(NewStream(1), c.s, c.v, 99)
		}()
	}
}

// TestZipfTableCapped pins the table at 2¹⁶ ranks whatever imax is: at
// imax 2⁴⁰ its cuts and guide come to 1.25 MiB.
func TestZipfTableCapped(t *testing.T) {
	z := ZipfFrom(NewStream(1), 1.5, 1, 1<<40)
	if len(z.cut) != 2<<16+2 || len(z.guide) != 1<<16 {
		t.Fatalf("imax 2⁴⁰: %d cuts and %d guide cells, want %d and %d", len(z.cut), len(z.guide), 2<<16+2, 1<<16)
	}
}

// BenchmarkZipf prices one draw at the vocabularies E1 (table1, 100
// words), E5 (mapreduce, 500) and the harness (50 000) draw, for this
// sampler and for math/rand's on the same stream.
func BenchmarkZipf(b *testing.B) {
	for _, vocab := range []uint64{100, 500, 50000} {
		b.Run(fmt.Sprint("v", vocab), func(b *testing.B) {
			b.Run("dist", func(b *testing.B) {
				z := ZipfFrom(NewStream(1), 1.3, 1, vocab-1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					zipfSink += z.Uint64()
				}
			})
			b.Run("math-rand", func(b *testing.B) {
				z := rand.NewZipf(rand.New(streamSource{NewStream(1)}), 1.3, 1, vocab-1)
				for i := 0; i < b.N; i++ {
					zipfSink += z.Uint64()
				}
			})
		})
	}
}

// BenchmarkStreamUint64 is a table draw's floor: the one Stream.Uint64
// behind its Int63.
func BenchmarkStreamUint64(b *testing.B) {
	st := NewStream(1)
	for i := 0; i < b.N; i++ {
		zipfSink += st.Uint64()
	}
}

// BenchmarkZipfFrom prices building the harness vocabulary's table.
func BenchmarkZipfFrom(b *testing.B) {
	b.Run("v50000", func(b *testing.B) {
		b.ReportAllocs()
		st := NewStream(1)
		for i := 0; i < b.N; i++ {
			zipfSink += uint64(len(ZipfFrom(st, 1.3, 1, 49999).cut))
		}
	})
}

// zipfSink keeps the benchmarks' draws alive.
var zipfSink uint64
