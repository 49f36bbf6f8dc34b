package wordcount

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gopilot/internal/dist"
)

func TestGenerateCorpusShape(t *testing.T) {
	c := GenerateCorpus(4, 100, 50, dist.NewStream(1))
	if len(c) != 4 {
		t.Fatalf("splits = %d", len(c))
	}
	for _, s := range c {
		if got := len(strings.Fields(s)); got != 100 {
			t.Fatalf("words = %d, want 100", got)
		}
	}
	// Reproducible.
	c2 := GenerateCorpus(4, 100, 50, dist.NewStream(1))
	if c[0] != c2[0] {
		t.Fatal("corpus not reproducible")
	}
}

func TestCorpusIsSkewed(t *testing.T) {
	c := GenerateCorpus(1, 5000, 100, dist.NewStream(2))
	counts := Sequential(c)
	// Zipf: the most frequent word dominates the median word.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 500 {
		t.Fatalf("head word count = %d, corpus not skewed", max)
	}
}

func TestMapEmitsOnes(t *testing.T) {
	var got []string
	Map(context.Background(), "", "a b a", func(k, v string) {
		got = append(got, k+"="+v)
	})
	want := []string{"a=1", "b=1", "a=1"}
	if len(got) != 3 {
		t.Fatalf("emitted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emitted = %v, want %v", got, want)
		}
	}
}

func TestReduceSums(t *testing.T) {
	var k, v string
	err := Reduce(context.Background(), "w", []string{"1", "2", "3"}, func(key, val string) { k, v = key, val })
	if err != nil || k != "w" || v != "6" {
		t.Fatalf("reduce = %q=%q err=%v", k, v, err)
	}
	if err := Reduce(context.Background(), "w", []string{"x"}, func(string, string) {}); err == nil {
		t.Fatal("bad count accepted")
	}
}

func TestSequentialCounts(t *testing.T) {
	counts := Sequential([]string{"a b", "b c b"})
	if counts["a"] != 1 || counts["b"] != 3 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestConfigAssembly(t *testing.T) {
	cfg := Config("job", []string{"s1", "s2"}, 3)
	if cfg.Name != "job" || len(cfg.InputIDs) != 2 || cfg.Reducers != 3 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Map == nil || cfg.Reduce == nil || cfg.Combine == nil {
		t.Fatal("functions not wired")
	}
	// Reduce/Combine agreement: combining partials then reducing equals
	// reducing everything (sum associativity).
	var combined []string
	cfg.Combine(context.Background(), "w", []string{"1", "1", "1"}, func(_, v string) { combined = append(combined, v) })
	var final string
	cfg.Reduce(context.Background(), "w", append(combined, "2"), func(_, v string) { final = v })
	if n, _ := strconv.Atoi(final); n != 5 {
		t.Fatalf("combine+reduce = %s, want 5", final)
	}
}

// TestGenerateCorpusBytesPinned: the corpus is an input of every
// wordcount exhibit and of the repository benchmark's digest; its bytes
// (sha256 recorded while words were still formatted with fmt.Fprintf)
// must survive any change to how they are produced.
func TestGenerateCorpusBytesPinned(t *testing.T) {
	h := sha256.New()
	for _, s := range GenerateCorpus(5, 3000, 700, dist.NewStream(9).Named("corpus")) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	const want = "679c3b02896baa9c613c8bc548fd7439803d8bbf6f59271fc8f971800aee5e89"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("corpus sha256 = %s, want %s", got, want)
	}
}

// FuzzEachFieldMatchesFields holds Map's tokenizer to strings.Fields —
// which Sequential, the independent reference, keeps using. The seeds are
// the table: ASCII and Unicode spaces (NEL, NBSP, ogham, en quad, line and
// paragraph separators, ideographic space), leading, trailing and doubled
// separators, multi-byte words, bytes that are not UTF-8, and U+200B,
// which looks like a space and is not one.
func FuzzEachFieldMatchesFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", "a b a", "  lead", "trail \n", "a \t\n\v\f\r b", "w1 w22 w333 ",
		"é ü ñ", "\xff \xc3 \xe2\x80", "a\xa0b", "a\x85b",
	} {
		f.Add(s)
	}
	for _, r := range []rune{0x85, 0xa0, 0x1680, 0x2000, 0x2028, 0x2029, 0x3000, 0x200b} {
		f.Add(string(r) + "a" + string(r) + string(r) + "é" + string(r))
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		eachField(s, func(w string) { got = append(got, w) })
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("eachField(%q) = %q, strings.Fields = %q", s, got, want)
		}
	})
}

// BenchmarkMap: the tokenizer over one harness-sized split (200 000 words
// of a 50 000-word Zipf vocabulary), per word.
func BenchmarkMap(b *testing.B) {
	split := GenerateCorpus(1, 200_000, 50_000, dist.NewStream(1).Named("corpus"))[0]
	words := 0
	emit := func(_, _ string) { words++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Map(context.Background(), "", split, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
}

// BenchmarkGenerateCorpus: one harness-sized split, per word.
func BenchmarkGenerateCorpus(b *testing.B) {
	s := dist.NewStream(1).Named("corpus")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateCorpus(1, 200_000, 50_000, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*200_000), "ns/word")
}
