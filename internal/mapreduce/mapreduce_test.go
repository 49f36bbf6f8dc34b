package mapreduce

import (
	"context"
	"errors"
	"fmt"
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
		ds.AddSite(infra.Site(s))
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
