package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/scheduler"
	"gopilot/internal/vclock/vclocktest"
)

type env struct {
	mgr  *core.Manager
	data *data.Service
}

func newEnv(t *testing.T, sites ...string) *env {
	t.Helper()
	if len(sites) == 0 {
		sites = []string{"siteA"}
	}
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	ds := data.NewService(data.Config{Clock: clock, DefaultLink: data.Link{Bandwidth: 100e6, Latency: 10 * time.Millisecond}})
	for _, s := range sites {
		reg.Register(saga.NewLocalService(s, 32, clock))
	}
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Data: ds, Scheduler: scheduler.DataAware{}})
	t.Cleanup(mgr.Close)
	e := &env{mgr: mgr, data: ds}
	for _, s := range sites {
		p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://" + s, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WaitRunning(context.Background()); err != nil {
			t.Fatalf("pilot never started: %v", err)
		}
	}
	return e
}

// wordMapper and countReducer implement classic wordcount.
func wordMapper(_ context.Context, _ string, value string, emit func(k, v string)) error {
	for _, w := range strings.Fields(value) {
		emit(strings.ToLower(strings.Trim(w, ".,!?")), "1")
	}
	return nil
}

func countReducer(_ context.Context, key string, values []string, emit func(k, v string)) error {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		sum += n
	}
	emit(key, strconv.Itoa(sum))
	return nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	kvs := []KeyValue{{"a", "1"}, {"tab\there", "new\nline"}, {"", "empty key"}, {"quote\"", "\\slash"}}
	got, err := Decode(Encode(kvs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kvs) {
		t.Fatalf("len = %d, want %d", len(got), len(kvs))
	}
	for i := range kvs {
		if got[i] != kvs[i] {
			t.Errorf("kv[%d] = %+v, want %+v", i, got[i], kvs[i])
		}
	}
}

// Property: Encode/Decode round-trips arbitrary strings.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(k, v string) bool {
		kvs := []KeyValue{{k, v}}
		got, err := Decode(Encode(kvs))
		return err == nil && len(got) == 1 && got[0] == kvs[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("no-tab-line\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := Decode([]byte("notquoted\talso\n")); err == nil {
		t.Error("unquoted fields accepted")
	}
}

func TestGroupPreservesOrder(t *testing.T) {
	g := Group([]KeyValue{{"k", "1"}, {"k", "2"}, {"j", "x"}, {"k", "3"}})
	if len(g["k"]) != 3 || g["k"][0] != "1" || g["k"][2] != "3" {
		t.Fatalf("group = %v", g)
	}
}

func TestPartitionOfIsStable(t *testing.T) {
	for _, key := range []string{"a", "b", "hello", ""} {
		p1, p2 := partitionOf(key, 7), partitionOf(key, 7)
		if p1 != p2 {
			t.Fatalf("partitionOf(%q) unstable", key)
		}
		if p1 < 0 || p1 >= 7 {
			t.Fatalf("partitionOf(%q) = %d out of range", key, p1)
		}
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	splits := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"quick quick slow",
	}
	var ids []string
	for i, s := range splits {
		id := fmt.Sprintf("wc-in-%d", i)
		if err := e.data.Put(ctx, data.Unit{ID: id, Content: []byte(s), Site: "siteA"}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := Run(ctx, e.mgr, Config{
		Name:     "wc",
		InputIDs: ids,
		Reducers: 3,
		Map:      wordMapper,
		Reduce:   countReducer,
		Combine:  countReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 3 || res.ReduceTasks != 3 {
		t.Fatalf("tasks = %d/%d, want 3/3", res.MapTasks, res.ReduceTasks)
	}
	out, err := Collect(ctx, e.mgr, res)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	want := map[string]string{"the": "4", "quick": "3", "fox": "2", "dog": "2", "slow": "1"}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %q, want %q", k, counts[k], v)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestMapReduceMatchesSequential(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	// Random-ish deterministic corpus.
	words := []string{"alpha", "beta", "gamma", "delta"}
	var splits []string
	for i := 0; i < 6; i++ {
		var sb strings.Builder
		for j := 0; j < 50; j++ {
			sb.WriteString(words[(i*7+j*3)%len(words)])
			sb.WriteByte(' ')
		}
		splits = append(splits, sb.String())
	}
	// Sequential reference.
	ref := map[string]int{}
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			ref[w]++
		}
	}
	var ids []string
	for i, s := range splits {
		id := fmt.Sprintf("seq-in-%d", i)
		e.data.Put(ctx, data.Unit{ID: id, Content: []byte(s), Site: "siteA"})
		ids = append(ids, id)
	}
	res, err := Run(ctx, e.mgr, Config{Name: "seq", InputIDs: ids, Reducers: 2, Map: wordMapper, Reduce: countReducer})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ctx, e.mgr, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ref) {
		t.Fatalf("distinct keys = %d, want %d", len(out), len(ref))
	}
	for _, kv := range out {
		if kv.Value != strconv.Itoa(ref[kv.Key]) {
			t.Errorf("%q = %s, want %d", kv.Key, kv.Value, ref[kv.Key])
		}
	}
}

func TestCrossSiteShuffleMovesBytes(t *testing.T) {
	e := newEnv(t, "siteA", "siteB")
	ctx := context.Background()
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("x-in-%d", i)
		st := infra.Site("siteA")
		if i%2 == 1 {
			st = "siteB"
		}
		e.data.Put(ctx, data.Unit{ID: id, Content: []byte("a b c d e f g h"), Site: st})
		ids = append(ids, id)
	}
	e.data.ResetStats()
	res, err := Run(ctx, e.mgr, Config{Name: "x", InputIDs: ids, Reducers: 2, Map: wordMapper, Reduce: countReducer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(ctx, e.mgr, res); err != nil {
		t.Fatal(err)
	}
	// With inputs on two sites, the shuffle must cross sites at least once.
	st := e.data.Stats()
	if st.RemoteReads == 0 && st.Replications == 0 {
		t.Errorf("expected cross-site traffic during shuffle, stats = %+v", st)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	e.data.Put(ctx, data.Unit{ID: "bad-in", Content: []byte("x"), Site: "siteA"})
	boom := errors.New("map boom")
	_, err := Run(ctx, e.mgr, Config{
		Name:     "bad",
		InputIDs: []string{"bad-in"},
		Map:      func(context.Context, string, string, func(k, v string)) error { return boom },
		Reduce:   countReducer,
	})
	if err == nil || !strings.Contains(err.Error(), "map boom") {
		t.Fatalf("err = %v, want map boom", err)
	}
}

func TestConfigValidation(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	if _, err := Run(ctx, e.mgr, Config{Map: wordMapper, Reduce: countReducer}); err == nil {
		t.Error("no inputs accepted")
	}
	if _, err := Run(ctx, e.mgr, Config{InputIDs: []string{"x"}}); err == nil {
		t.Error("nil Map/Reduce accepted")
	}
}

// TestPartitionOfMatchesFNV pins the inlined hash to hash/fnv's FNV-1a:
// a partition number decides which reducer sees a key, so it is part of
// every job's output layout.
func TestPartitionOfMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "b", "hello", "w0", "w49999", "tab\there", "é", "\xff\x00", strings.Repeat("long", 100)}
	for _, key := range keys {
		for _, r := range []int{1, 2, 7, 8, 1000} {
			h := fnv.New32a()
			h.Write([]byte(key))
			if got, want := partitionOf(key, r), int(h.Sum32()%uint32(r)); got != want {
				t.Errorf("partitionOf(%q, %d) = %d, hash/fnv says %d", key, r, got, want)
			}
		}
	}
	// Absolute values, so that a change to both sides cannot pass.
	if a, b := partitionOf("hello", 1000), partitionOf("", 1000); a != 723 || b != 261 {
		t.Errorf("partitionOf(hello, 1000) = %d, partitionOf(\"\", 1000) = %d; want 723, 261", a, b)
	}
}

// groupStableRef is the grouping groupSorted replaced, kept as its
// oracle: stable-sort the pairs by key — stability keeps each key's
// values in emission order — and call fn once per run of equal keys.
func groupStableRef(kvs []KeyValue, fn func(key string, values []string) error) error {
	kvs = slices.Clone(kvs)
	slices.SortStableFunc(kvs, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) })
	vals := make([]string, len(kvs))
	for i := range kvs {
		vals[i] = kvs[i].Value
	}
	for lo := 0; lo < len(kvs); {
		hi := lo + 1
		for hi < len(kvs) && kvs[hi].Key == kvs[lo].Key {
			hi++
		}
		if err := fn(kvs[lo].Key, vals[lo:hi:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// fuzzPairs turns fuzz bytes into a pair list. The first byte picks the
// key shape — skewed, all distinct, one key, keys that are prefixes of
// one another (the empty key included), raw input bytes — and every two
// bytes after it make one pair. A value ends in its pair's ordinal, so a
// group that received its values out of emission order cannot compare
// equal, and starts with something Encode must quote.
func fuzzPairs(data []byte) []KeyValue {
	if len(data) == 0 {
		return nil
	}
	shape, data := data[0]%5, data[1:]
	awkward := []string{"1", "", "\t", "a\nb", `"q"`, `\`, "é", "\xff"}
	kvs := make([]KeyValue, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		var key string
		switch shape {
		case 0:
			key = "w0"
			if a&1 == 1 {
				key = "w" + strconv.Itoa(int(a>>4))
			}
		case 1:
			key = "d" + strconv.Itoa(i)
		case 2:
			key = "only"
		case 3:
			key = "aaaaaaa"[:a%8]
		case 4:
			key = string(data[i:min(len(data), i+int(a%4))])
		}
		kvs = append(kvs, KeyValue{key, awkward[int(b)%len(awkward)] + "#" + strconv.Itoa(i/2)})
	}
	return kvs
}

// combineRef is combine over the oracle grouping.
func combineRef(ctx context.Context, c Reducer, kvs []KeyValue) ([]KeyValue, error) {
	var out []KeyValue
	emit := func(k, v string) { out = append(out, KeyValue{k, v}) }
	err := groupStableRef(kvs, func(k string, vs []string) error { return c(ctx, k, vs, emit) })
	return out, err
}

// combineCalls runs a combine with a combiner whose output depends on the
// order of its values, and returns the (key, values…) sequence the
// combiner was called with and the encoded combine output.
func combineCalls(t *testing.T, combine func(c Reducer) ([]KeyValue, error)) ([][]string, []byte) {
	t.Helper()
	var calls [][]string
	out, err := combine(func(_ context.Context, key string, values []string, emit func(k, v string)) error {
		if cap(values) != len(values) {
			t.Errorf("key %q: values has len %d, cap %d — an append would overwrite the next group", key, len(values), cap(values))
		}
		calls = append(calls, append([]string{key}, values...))
		emit(key, strings.Join(values, "|"))
		emit(key, strconv.Itoa(len(values)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calls, Encode(out)
}

// FuzzGroupMatchesStableSort holds groupSorted, through combine, to the
// stable sort it replaced: for any pair list, the same calls in the same
// order with the same values, the same encoded combine output, and the
// input left alone. Each input goes through one scratch three times — whole, its
// second half, whole again — so state a run leaves behind (the index, the
// key column, the counts) reaches the next run if the entry reset misses
// it.
func FuzzGroupMatchesStableSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0x11, 1, 2, 2, 0x31, 3, 1, 4}) // skewed: w0 w1 w0 w3 w0
	f.Add([]byte{3, 3, 0, 0, 1, 2, 2, 0, 3, 7, 4, 1, 5}) // prefixes: aaa "" aa "" aaaaaaa a
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs := fuzzPairs(data)
		sc := newScratch()
		for run, in := range [][]KeyValue{kvs, kvs[len(kvs)/2:], kvs} {
			wantCalls, wantEnc := combineCalls(t, func(c Reducer) ([]KeyValue, error) { return combineRef(ctx, c, in) })
			before := slices.Clone(in)
			gotCalls, gotEnc := combineCalls(t, func(c Reducer) ([]KeyValue, error) { return combine(ctx, c, in, sc) })
			if !slices.EqualFunc(gotCalls, wantCalls, func(a, b []string) bool { return slices.Equal(a, b) }) {
				t.Fatalf("run %d: calls\n got %q\nwant %q", run, gotCalls, wantCalls)
			}
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Fatalf("run %d: encoded combine output\n got %q\nwant %q", run, gotEnc, wantEnc)
			}
			if !slices.Equal(in, before) {
				t.Fatalf("run %d: groupSorted reordered its input", run)
			}
		}
	})
}

// fakeData is a DataService over a map, for driving a task function
// without a manager.
type fakeData struct {
	core.DataService
	units map[string][]byte
}

func (d *fakeData) Read(_ context.Context, id string, _ infra.Site) ([]byte, error) {
	content, ok := d.units[id]
	if !ok {
		return nil, fmt.Errorf("no data unit %q", id)
	}
	return content, nil
}

func (d *fakeData) Write(_ context.Context, id string, content []byte, _ infra.Site) error {
	d.units[id] = content
	return nil
}

// checkClean fails unless sc holds no string reference at all: an empty
// index and every string slot of every column zero up to capacity.
func checkClean(t *testing.T, sc *kernelScratch) {
	t.Helper()
	if len(sc.index) != 0 {
		t.Errorf("index holds %d keys after release", len(sc.index))
	}
	zeroKVs := func(name string, kvs []KeyValue) {
		for i, kv := range kvs[:cap(kvs)] {
			if kv != (KeyValue{}) {
				t.Errorf("%s[%d] = %+v after release", name, i, kv)
				return
			}
		}
	}
	for r, p := range sc.parts[:cap(sc.parts)] {
		zeroKVs(fmt.Sprintf("parts[%d]", r), p)
	}
	zeroKVs("all", sc.all)
	for name, col := range map[string][]string{"keys": sc.keys, "vals": sc.vals} {
		for i, s := range col[:cap(col)] {
			if s != "" {
				t.Errorf("%s[%d] = %q after release", name, i, s)
				break
			}
		}
	}
}

// TestScratchReleaseDropsEveryReference: keys and values are substrings
// of the split (and of the shuffled partitions), so whatever a released
// scratch still points at stays in memory until the pool drops it. After
// a map kernel and a reduce kernel over a known corpus, release leaves
// nothing behind; the corpus is sized so that the kernels populate every
// column (checked, or the zero check below would pass vacuously).
func TestScratchReleaseDropsEveryReference(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Name: "rel", Reducers: 3, Map: wordMapper, Reduce: countReducer, Combine: countReducer}
	split := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 20))
	sc := newScratch()
	encoded, err := mapKernel(ctx, cfg, "in", split, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reduceKernel(ctx, cfg, []string{"p0", "p1"}, [][]byte{encoded[0], encoded[0]}, sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.index) == 0 || len(sc.keys) == 0 || len(sc.vals) == 0 || len(sc.all) == 0 || len(sc.parts[0]) == 0 {
		t.Fatalf("kernels left a column unused: index %d, keys %d, vals %d, all %d, parts[0] %d",
			len(sc.index), len(sc.keys), len(sc.vals), len(sc.all), len(sc.parts[0]))
	}
	// No test in this package runs in parallel, so nothing takes sc back
	// out of the pool while it is inspected.
	sc.release()
	checkClean(t, sc)
}

// TestFailedCombineReleasesCleanScratch: a combiner that fails part-way
// leaves the grouping columns mid-use — index and key column filled,
// later partitions' pairs still buffered — and the task must still hand
// back a scratch that holds nothing. The task function runs against a
// fake context whose Compute runs the kernel inline, and the combiner
// keeps the scratch reachable through the values slice it was handed.
func TestFailedCombineReleasesCleanScratch(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("combine boom")
	var seen []string
	cfg := Config{Name: "fail", Reducers: 2, Map: wordMapper, Reduce: countReducer,
		Combine: func(_ context.Context, key string, values []string, _ func(k, v string)) error {
			if seen = values; key >= "fox" {
				return boom
			}
			return nil
		}}
	split := []byte("the quick brown fox jumps over the lazy dog")
	tc := core.TaskContext{
		Site:    "siteA",
		Data:    &fakeData{units: map[string][]byte{"in": split}},
		Sleep:   func(context.Context, time.Duration) bool { return true },
		Compute: func(_ context.Context, fn func()) bool { fn(); return true },
	}
	if err := runMapTask(ctx, tc, cfg, 0, "in"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want combine boom", err)
	}
	if len(seen) == 0 || seen[0] != "" {
		t.Fatalf("the failing combiner's values are %q after the task returned, want released (zeroed)", seen)
	}
	// The same abort, on a scratch the test can see all of.
	sc := newScratch()
	if _, err := mapKernel(ctx, cfg, "in", split, sc); !errors.Is(err, boom) {
		t.Fatalf("mapKernel err = %v, want combine boom", err)
	}
	if len(sc.index) == 0 || len(sc.parts[1]) == 0 {
		t.Fatal("the aborted kernel left nothing to clean")
	}
	sc.release()
	checkClean(t, sc)
}
