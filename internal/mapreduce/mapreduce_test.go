package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
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

func newEnv(t testing.TB, sites ...string) *env {
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
	if !slices.IsSortedFunc(out, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) }) {
		t.Errorf("Collect = %q, not sorted by key", out)
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

// groupStableRef is the grouping the kernels replaced, kept as their
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

// recorder returns a combiner or reducer whose output depends on the
// order of its values, and which appends the (key, values…) of each call
// to *calls.
func recorder(t *testing.T, calls *[][]string) Reducer {
	return func(_ context.Context, key string, values []string, emit func(k, v string)) error {
		if cap(values) != len(values) {
			t.Errorf("key %q: values has len %d, cap %d — an append would overwrite the next group", key, len(values), cap(values))
		}
		*calls = append(*calls, append([]string{key}, values...))
		emit(key, strings.Join(values, "|"))
		emit(key, strconv.Itoa(len(values)))
		return nil
	}
}

// encodeRef is what a kernel must encode for kvs: kvs itself, in emission
// order, without a reducer, else red's output over the oracle grouping.
func encodeRef(ctx context.Context, red Reducer, kvs []KeyValue) []byte {
	if red == nil {
		return Encode(kvs)
	}
	var out []KeyValue
	groupStableRef(kvs, func(k string, vs []string) error {
		return red(ctx, k, vs, func(k, v string) { out = append(out, KeyValue{k, v}) })
	})
	return Encode(out)
}

// emitting is a mapper that emits kvs whatever its input.
func emitting(kvs []KeyValue) Mapper {
	return func(_ context.Context, _, _ string, emit func(k, v string)) error {
		for _, kv := range kvs {
			emit(kv.Key, kv.Value)
		}
		return nil
	}
}

func equalCalls(a, b [][]string) bool {
	return slices.EqualFunc(a, b, func(x, y []string) bool { return slices.Equal(x, y) })
}

// FuzzGroupMatchesStableSort holds the kernels' grouping to the stable
// sort it replaced. The map kernel, over one to three partitions, must
// make the same combiner calls in the same order with the same values —
// partition after partition, keys ascending in each — and encode the
// same bytes per partition; without a combiner it must encode each
// partition in emission order; the reduce kernel, fed the pairs as two
// encoded shuffle partitions, must make the same reducer calls and
// encode the same bytes. Each input goes through one scratch three times
// — whole, its second half, whole again — with a reset after every
// kernel, so state a kernel leaves behind (the index, the key and count
// columns, a partition's distinct ids) reaches the next if reset misses
// it.
func FuzzGroupMatchesStableSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0x11, 1, 2, 2, 0x31, 3, 1, 4}) // skewed: w0 w1 w0 w3 w0
	f.Add([]byte{3, 3, 0, 0, 1, 2, 2, 0, 3, 7, 4, 1, 5}) // prefixes: aaa "" aa "" aaaaaaa a
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs := fuzzPairs(data)
		reducers := 1
		if len(data) > 0 {
			reducers += int(data[0]/5) % 3
		}
		sc := newScratch()
		for run, in := range [][]KeyValue{kvs, kvs[len(kvs)/2:], kvs} {
			for _, combine := range []bool{true, false} {
				var wantCalls, gotCalls [][]string
				cfg := Config{Reducers: reducers, Map: emitting(in)}
				if combine {
					cfg.Combine = recorder(t, &gotCalls)
				}
				got, err := mapKernel(ctx, cfg, "in", nil, sc)
				if err != nil {
					t.Fatal(err)
				}
				for p := range reducers {
					var part []KeyValue
					for _, kv := range in {
						if partitionOf(kv.Key, reducers) == p {
							part = append(part, kv)
						}
					}
					var red Reducer
					if combine {
						red = recorder(t, &wantCalls)
					}
					if want := encodeRef(ctx, red, part); !bytes.Equal(got[p], want) {
						t.Fatalf("run %d, combine %v: partition %d of %d encoded\n got %q\nwant %q", run, combine, p, reducers, got[p], want)
					}
				}
				if !equalCalls(gotCalls, wantCalls) {
					t.Fatalf("run %d: combiner calls\n got %q\nwant %q", run, gotCalls, wantCalls)
				}
				sc.reset()
			}
			var wantCalls, gotCalls [][]string
			half := len(in) / 2
			got, err := reduceKernel(ctx, Config{Reduce: recorder(t, &gotCalls)}, []string{"m0", "m1"},
				[][]byte{Encode(in[:half]), Encode(in[half:])}, sc)
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeRef(ctx, recorder(t, &wantCalls), in); !bytes.Equal(got, want) {
				t.Fatalf("run %d: reduce output\n got %q\nwant %q", run, got, want)
			}
			if !equalCalls(gotCalls, wantCalls) {
				t.Fatalf("run %d: reducer calls\n got %q\nwant %q", run, gotCalls, wantCalls)
			}
			sc.reset()
		}
	})
}

// TestGroupingLimit: key ids are int32, so a kernel with more distinct
// keys than an id can name fails with an error, on either side, rather
// than wrap an id; at the limit itself it succeeds — also right after a
// kernel on the same scratch failed, so the error does not outlive reset.
func TestGroupingLimit(t *testing.T) {
	defer func(n int) { maxKeys = n }(maxKeys)
	maxKeys = 3
	ctx := context.Background()
	three := []KeyValue{{"a", "1"}, {"b", "1"}, {"a", "1"}, {"c", "1"}}
	four := append(slices.Clone(three), KeyValue{"d", "1"})
	sc := newScratch()
	for _, kernel := range []struct {
		side string
		run  func(kvs []KeyValue) error
	}{
		{"map", func(kvs []KeyValue) error {
			_, err := mapKernel(ctx, Config{Reducers: 2, Map: emitting(kvs)}, "in", nil, sc)
			return err
		}},
		{"reduce", func(kvs []KeyValue) error {
			_, err := reduceKernel(ctx, Config{Reduce: countReducer}, []string{"p"}, [][]byte{Encode(kvs)}, sc)
			return err
		}},
	} {
		if err := kernel.run(four); err == nil || !strings.Contains(err.Error(), "grouping limit") {
			t.Fatalf("%s: 4 distinct keys at a limit of 3: err = %v", kernel.side, err)
		}
		sc.reset()
		checkClean(t, sc)
		if err := kernel.run(three); err != nil {
			t.Fatalf("%s: 3 distinct keys at a limit of 3, after a failed kernel: %v", kernel.side, err)
		}
		sc.reset()
	}
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

// checkClean fails unless sc is as reset leaves it: no grouping error,
// an empty index, empty key, count and partition columns, and every
// string slot of every column — each partition's values included, up to
// the capacity of the partition list — zero up to capacity.
func checkClean(t *testing.T, sc *kernelScratch) {
	t.Helper()
	if len(sc.index) != 0 || len(sc.keys) != 0 || len(sc.cnt) != 0 || len(sc.parts) != 0 || sc.err != nil {
		t.Errorf("after release: index %d keys, key column %d, count column %d, %d partitions, err %v",
			len(sc.index), len(sc.keys), len(sc.cnt), len(sc.parts), sc.err)
	}
	zero := func(name string, col []string) {
		for i, s := range col[:cap(col)] {
			if s != "" {
				t.Errorf("%s[%d] = %q after release", name, i, s)
				return
			}
		}
	}
	zero("keys", sc.keys)
	zero("vals", sc.vals)
	for r, c := range sc.parts[:cap(sc.parts)] {
		if len(c.ids) != 0 || len(c.distinct) != 0 {
			t.Errorf("partition %d holds %d pairs and %d keys after release", r, len(c.ids), len(c.distinct))
		}
		zero(fmt.Sprintf("parts[%d].vals", r), c.vals)
	}
	for i, kv := range sc.out[:cap(sc.out)] {
		if kv != (KeyValue{}) {
			t.Errorf("out[%d] = %+v after release", i, kv)
			break
		}
	}
}

// TestScratchReleaseDropsEveryReference: keys and values are substrings
// of the split (and of the shuffled partitions), so whatever a released
// scratch still points at stays in memory for as long as the free list
// keeps the scratch, which is for good. After
// a map kernel, and again after a reduce kernel, release leaves nothing
// behind. The corpus is sized so that the kernels populate every column,
// and so that the last partition grouped is shorter than an earlier one —
// the value column then holds values past its length — or the zero
// checks would pass vacuously (both checked).
func TestScratchReleaseDropsEveryReference(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Name: "rel", Reducers: 2, Map: wordMapper, Reduce: countReducer, Combine: countReducer}
	split := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 20))
	used := func(side string, sc *kernelScratch) {
		t.Helper()
		out := sc.out[:cap(sc.out)]
		past := slices.ContainsFunc(sc.vals[len(sc.vals):cap(sc.vals)], func(v string) bool { return v != "" })
		if len(sc.index) == 0 || len(sc.keys) == 0 || len(out) == 0 || out[0].Key == "" ||
			len(sc.parts[len(sc.parts)-1].ids) == 0 || side == "map" && !past {
			t.Fatalf("%s kernel left a column unused: index %d, keys %d, out %d, last partition %d pairs, vals %d of %d, values past the length %v",
				side, len(sc.index), len(sc.keys), len(out), len(sc.parts[len(sc.parts)-1].ids), len(sc.vals), cap(sc.vals), past)
		}
	}
	sc := newScratch()
	encoded, err := mapKernel(ctx, cfg, "in", split, sc)
	if err != nil {
		t.Fatal(err)
	}
	used("map", sc)
	sc.reset()
	checkClean(t, sc)
	if _, err := reduceKernel(ctx, cfg, []string{"p0", "p1"}, [][]byte{encoded[0], encoded[0]}, sc); err != nil {
		t.Fatal(err)
	}
	used("reduce", sc)
	// No test in this package runs in parallel, so nothing takes sc back
	// off the free list while it is inspected.
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
	if len(sc.index) == 0 || len(sc.parts[1].ids) == 0 {
		t.Fatal("the aborted kernel left nothing to clean")
	}
	sc.release()
	checkClean(t, sc)
}

// TestFreeListSurvivesCollection: a released scratch, its columns grown
// by a map kernel, is the one getScratch hands out next, even after the
// two collections that empty a sync.Pool, and it comes back clean.
func TestFreeListSurvivesCollection(t *testing.T) {
	cfg := Config{Reducers: 2, Map: wordMapper, Reduce: countReducer, Combine: countReducer}
	sc := getScratch()
	if _, err := mapKernel(context.Background(), cfg, "in", []byte(strings.Repeat("the quick brown fox ", 50)), sc); err != nil {
		t.Fatal(err)
	}
	grown := cap(sc.parts[0].ids)
	sc.release()
	runtime.GC()
	runtime.GC()
	got := getScratch()
	defer got.release()
	if got != sc {
		t.Fatal("getScratch after two collections returned a new scratch, not the released one")
	}
	checkClean(t, got)
	if parts := got.parts[:cap(got.parts)]; grown == 0 || cap(parts[0].ids) != grown {
		t.Errorf("partition 0's capacity is %d after release, want the %d it grew to", cap(parts[0].ids), grown)
	}
}

// TestCollectMatchesDecode: Collect over outputs written by hand — one
// empty, one with a blank line and a last line without its newline, keys
// and values that need escapes — equals the sorted concatenation of
// Decode over each output, and holds every pair written.
func TestCollectMatchesDecode(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	escaped := []KeyValue{{"tab\tkey", "v\n1"}, {`quo"te`, "é"}, {"b", "2"}, {"a", "1"}}
	last := strings.TrimSuffix(string(Encode([]KeyValue{{"z\x00", "9"}})), "\n")
	contents := []string{
		"",
		string(Encode(escaped)) + "\n" + last,
		"\n" + string(Encode([]KeyValue{{"a", "1"}, {"b", "3"}})),
	}
	res := &Result{}
	var want []KeyValue
	for i, c := range contents {
		id := fmt.Sprintf("out%d", i)
		if err := e.data.Put(ctx, data.Unit{ID: id, Content: []byte(c), Site: "siteA"}); err != nil {
			t.Fatal(err)
		}
		res.OutputIDs = append(res.OutputIDs, id)
		kvs, err := Decode([]byte(c))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, kvs...)
	}
	if len(want) != len(escaped)+3 {
		t.Fatalf("Decode found %d pairs in the outputs, want %d", len(want), len(escaped)+3)
	}
	slices.SortFunc(want, func(a, b KeyValue) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
	})
	got, err := Collect(ctx, e.mgr, res)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Collect = %q\nwant %q", got, want)
	}
}
