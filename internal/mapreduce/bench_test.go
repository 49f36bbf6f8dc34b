package mapreduce

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gopilot/internal/dist"
)

// The layer's own numbers (ROADMAP aim 1): what grouping costs per pair
// and what one map kernel costs per emitted word, measured where the code
// lives. cmd/bench's ladder times Encode, Decode and the exported Group —
// none of which is the grouping the kernels run — so the share of
// mapreduce-wordcount spent here was invisible to it (harness Finding 5).
// Sizes are the harness's: 200 000 words per split from a 50 000-word
// Zipf(1.3) vocabulary, 8 reducers, hence ≈ 25 000 pairs per map-side
// partition.
const (
	benchWords    = 200_000
	benchVocab    = 50_000
	benchReducers = 8
)

// benchZipfWords returns a source of words distributed as a harness
// split's are.
func benchZipfWords() func() string {
	z := dist.ZipfFrom(dist.NewStream(1).Named("corpus"), 1.3, 1, benchVocab-1)
	return func() string { return "w" + strconv.FormatUint(z.Uint64(), 10) }
}

// reportPerPair adds ns/pair and allocs/pair to a benchmark that handled
// pairs pairs in each of its b.N iterations; mallocs0 is the allocation
// count read when the timer started.
func reportPerPair(b *testing.B, pairs int, mallocs0 uint64) {
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := float64(b.N) * float64(pairs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/pair")
	b.ReportMetric(float64(ms.Mallocs-mallocs0)/total, "allocs/pair")
}

func startCounting(b *testing.B) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportAllocs()
	b.ResetTimer()
	return ms.Mallocs
}

// BenchmarkGroup: groupSorted over 25 000 pairs through one reused
// scratch, at three key shapes — zipf25k is what the map side groups, the
// words of a harness split that hash to one partition; distinct25k has no
// two keys alike (the sort sees every pair); onekey25k has one group (the
// sort sees nothing).
func BenchmarkGroup(b *testing.B) {
	const pairs = 25_000
	zipf := make([]KeyValue, 0, pairs)
	for next := benchZipfWords(); len(zipf) < pairs; {
		if w := next(); partitionOf(w, benchReducers) == 0 {
			zipf = append(zipf, KeyValue{w, "1"})
		}
	}
	distinct, onekey := make([]KeyValue, pairs), make([]KeyValue, pairs)
	for i := range distinct {
		distinct[i] = KeyValue{"w" + strconv.Itoa(i*7919%pairs), "1"} // 7919 is coprime to 25 000: a permutation
		onekey[i] = KeyValue{"w1", "1"}
	}
	for _, bc := range []struct {
		name string
		kvs  []KeyValue
	}{{"zipf25k", zipf}, {"distinct25k", distinct}, {"onekey25k", onekey}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := newScratch()
			values := 0
			fn := func(_ string, vs []string) error { values += len(vs); return nil }
			mallocs0 := startCounting(b)
			for i := 0; i < b.N; i++ {
				if err := groupSorted(bc.kvs, sc, fn); err != nil {
					b.Fatal(err)
				}
			}
			reportPerPair(b, pairs, mallocs0)
			if values != b.N*pairs {
				b.Fatalf("groups carried %d values, want %d", values, b.N*pairs)
			}
		})
	}
}

// spaceMapper emits (word, "1") for every space-separated word. It
// stands in for wordcount.Map, which cannot be imported here (that
// package imports this one), and builds no slice of the split's words, so
// that the allocations reported are the kernel's own.
func spaceMapper(_ context.Context, _, value string, emit func(k, v string)) error {
	for value != "" {
		w, rest, _ := strings.Cut(value, " ")
		if w != "" {
			emit(w, "1")
		}
		value = rest
	}
	return nil
}

// BenchmarkMapKernel_Wordcount: one harness-sized split through one map
// task's compute phase — map, partition, combine, encode — with the
// scratch taken from and returned to the pool as the task does, and no
// executor, data service or modeled cost around it.
func BenchmarkMapKernel_Wordcount(b *testing.B) {
	ctx := context.Background()
	var text strings.Builder
	for i, next := 0, benchZipfWords(); i < benchWords; i++ {
		text.WriteString(next())
		text.WriteByte(' ')
	}
	split := []byte(text.String())
	cfg := Config{Reducers: benchReducers, Map: spaceMapper, Reduce: countReducer, Combine: countReducer}
	mallocs0 := startCounting(b)
	for i := 0; i < b.N; i++ {
		sc := getScratch()
		encoded, err := mapKernel(ctx, cfg, "split", split, sc)
		sc.release()
		if err != nil || len(encoded) != benchReducers {
			b.Fatalf("mapKernel: %d partitions, err %v", len(encoded), err)
		}
	}
	reportPerPair(b, benchWords, mallocs0)
}
