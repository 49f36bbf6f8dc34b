package dist

import (
	"fmt"
	"strings"
	"testing"
)

// chainNamed is Named's definition, spelled out: one SplitLabel per
// non-empty "/"-separated segment of every argument, each on the stream the
// step before returned.
func chainNamed(s *Stream, path ...string) *Stream {
	for _, p := range path {
		for _, seg := range strings.Split(p, "/") {
			if seg != "" {
				s = s.SplitLabel(labelKey(seg))
			}
		}
	}
	return s
}

// FuzzNamedMatchesSplitLabelChain holds Named, which folds the chain's
// (seed, gamma) pairs numerically and allocates at most the stream it returns,
// to that definition: over arbitrary paths — empty segments, leading,
// trailing and doubled slashes, several arguments, no segment at all — the
// stream it names draws what the chain's draws, and so does a grandchild
// derived from it (which reads the seed0 and gamma a draw does not).
func FuzzNamedMatchesSplitLabelChain(f *testing.F) {
	f.Add(int64(42), "infra/hpc/stampede", "queue-wait", uint64(3))
	f.Add(int64(1), "a//b/", "/c", uint64(0))
	f.Add(int64(-7), "", "", uint64(17))
	f.Add(int64(0), "///", "retry", uint64(1)<<63)
	f.Add(int64(9), "bench/pilot-backlog/cores", "", uint64(4000))
	f.Fuzz(func(t *testing.T, seed int64, a, b string, label uint64) {
		root := NewStream(seed)
		root.Uint64() // a parent that has been drawn from: position must not matter
		for _, path := range [][]string{{a}, {a, b}, {b, a, b}, {a + "/" + b}, nil} {
			got, want := root.Named(path...), chainNamed(root, path...)
			if (got == root) != (want == root) {
				t.Fatalf("Named(%q): receiver returned %v, chain says %v", path, got == root, want == root)
			}
			if got == root {
				continue // no segment: both name the receiver itself
			}
			if g, w := got.SplitLabel(label).Named("x").Uint64(), want.SplitLabel(label).Named("x").Uint64(); g != w {
				t.Fatalf("Named(%q): grandchild's first draw %#x, chain's %#x", path, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Named(%q): first draw %#x, chain's %#x", path, g, w)
			}
		}
	})
}

// TestDerivedChildDoesNotAllocate pins that Named and SplitLabel inline:
// a child drawn from and dropped, as a unit's "runtime" stream is once per
// attempt, lives on the caller's stack.
func TestDerivedChildDoesNotAllocate(t *testing.T) {
	s := NewStream(1)
	for name, f := range map[string]func(){
		"Named":      func() { drawSink += s.Named("runtime").Intn(50) },
		"SplitLabel": func() { drawSink += s.SplitLabel(7).Intn(4) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s child: %v allocs per derivation and draw, want 0", name, n)
		}
	}
}

// BenchmarkNamed prices the two shapes the tree derives by name: a
// one-segment child (a unit's "runtime" stream, once per attempt) and a
// three-segment path (a component's slot, once per component). The sink
// case stores the child in a package variable, so it escapes and costs
// one allocation; the draw case uses it and drops it, as a task body
// does, and costs none.
func BenchmarkNamed(b *testing.B) {
	root := NewStream(1)
	for _, path := range []string{"runtime", "bench/pilot-backlog/cores"} {
		b.Run(fmt.Sprint("segments", 1+strings.Count(path, "/")), func(b *testing.B) {
			b.Run("sink", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					namedSink = root.Named(path)
				}
			})
			b.Run("draw", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					drawSink += root.Named(path).Intn(50)
				}
			})
		})
	}
}

// namedSink and drawSink keep BenchmarkNamed's results alive.
var (
	namedSink *Stream
	drawSink  int
)
