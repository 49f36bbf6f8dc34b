package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gopilot/internal/data"
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

// benchSplit returns a harness-sized split of words drawn from next.
func benchSplit(next func() string) []byte {
	var text strings.Builder
	for i := 0; i < benchWords; i++ {
		text.WriteString(next())
		text.WriteByte(' ')
	}
	return []byte(text.String())
}

// reportPer adds ns/unit, allocs/unit and B/unit to a benchmark that
// handled n units in each of its b.N iterations; ms0 is the memory
// statistics read when the timer started.
func reportPer(b *testing.B, unit string, n int, ms0 *runtime.MemStats) {
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/"+unit)
	b.ReportMetric(float64(ms.Mallocs-ms0.Mallocs)/total, "allocs/"+unit)
	b.ReportMetric(float64(ms.TotalAlloc-ms0.TotalAlloc)/total, "B/"+unit)
}

func startCounting(b *testing.B) *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportAllocs()
	b.ResetTimer()
	return &ms
}

// BenchmarkGroup: 25 000 pairs filed (add) and grouped (each) through
// one reused scratch, reset after every round, at three key shapes —
// zipf25k is what the map side groups, the words of a harness split that
// hash to one partition; distinct25k has no two keys alike (the sort sees
// every pair); onekey25k has one group (the sort sees nothing).
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
			ms0 := startCounting(b)
			for i := 0; i < b.N; i++ {
				sc.parts = grow(sc.parts, 1)
				for _, kv := range bc.kvs {
					sc.add(kv.Key, kv.Value)
				}
				if err := sc.each(0, fn); err != nil {
					b.Fatal(err)
				}
				sc.reset()
			}
			reportPer(b, "pair", pairs, ms0)
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
// scratch taken from and returned to the free list as the task does, and no
// executor, data service or modeled cost around it.
func BenchmarkMapKernel_Wordcount(b *testing.B) {
	ctx := context.Background()
	split := benchSplit(benchZipfWords())
	cfg := Config{Reducers: benchReducers, Map: spaceMapper, Reduce: countReducer, Combine: countReducer}
	ms0 := startCounting(b)
	for i := 0; i < b.N; i++ {
		sc := getScratch()
		encoded, err := mapKernel(ctx, cfg, "split", split, sc)
		sc.release()
		if err != nil || len(encoded) != benchReducers {
			b.Fatalf("mapKernel: %d partitions, err %v", len(encoded), err)
		}
	}
	reportPer(b, "pair", benchWords, ms0)
}

// BenchmarkJob_Wordcount: the timed region of cmd/bench's
// mapreduce-wordcount — Run and Collect over 16 harness-sized splits with
// a combiner and 8 reducers on one 8-core pilot — with a collection before
// each job, as the harness runs one before each repetition. The scratch
// free list carries over from job to job. After the last job, scratches
// counts what the free list keeps between jobs, and retained-B the heap a
// collection frees once the list is dropped.
func BenchmarkJob_Wordcount(b *testing.B) {
	const splits = 16
	ctx := context.Background()
	e := newEnv(b)
	ids := make([]string, splits)
	next := benchZipfWords()
	for i := range ids {
		ids[i] = fmt.Sprintf("split%d", i)
		if err := e.data.Put(ctx, data.Unit{ID: ids[i], Content: benchSplit(next), Site: "siteA"}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{Name: "wc", InputIDs: ids, Reducers: benchReducers, Map: spaceMapper, Reduce: countReducer, Combine: countReducer}
	var got []KeyValue
	ms0 := startCounting(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		res, err := Run(ctx, e.mgr, cfg)
		if err == nil {
			got, err = Collect(ctx, e.mgr, res)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	reportPer(b, "word", splits*benchWords, ms0)
	counted := 0
	for _, kv := range got {
		n, _ := strconv.Atoi(kv.Value)
		counted += n
	}
	if counted != splits*benchWords {
		b.Fatalf("the job counted %d words, want %d", counted, splits*benchWords)
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	scratchFree.Lock()
	kept := len(scratchFree.list)
	scratchFree.list = nil
	scratchFree.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	runtime.KeepAlive(got)
	b.ReportMetric(float64(kept), "scratches")
	b.ReportMetric(float64(held.HeapAlloc)-float64(freed.HeapAlloc), "retained-B")
}
