package dataflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// newMgr builds a manager with one running 16-core pilot on a virtual
// clock, the calling test goroutine adopted as the driver participant.
func newMgr(t *testing.T) (*core.Manager, *vclock.Virtual) {
	t.Helper()
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 32, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	t.Cleanup(mgr.Close)
	p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitRunning(context.Background()); err != nil {
		t.Fatalf("pilot never started: %v", err)
	}
	return mgr, clock
}

func noopStage(name string, deps []string, par int, record func(string)) Stage {
	return Stage{
		Name:        name,
		Deps:        deps,
		Parallelism: par,
		Run: func(ctx context.Context, tc core.TaskContext, idx int) error {
			record(name)
			return nil
		},
	}
}

func TestLinearPipelineOrder(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	var mu sync.Mutex
	var order []string
	rec := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	g.MustAdd(noopStage("extract", nil, 1, rec))
	g.MustAdd(noopStage("transform", []string{"extract"}, 1, rec))
	g.MustAdd(noopStage("load", []string{"transform"}, 1, rec))
	res, err := g.Run(context.Background(), mgr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
	want := []string{"extract", "transform", "load"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDiamondDependenciesRespected(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	var mu sync.Mutex
	pos := map[string]int{}
	n := 0
	rec := func(s string) {
		mu.Lock()
		if _, seen := pos[s]; !seen {
			pos[s] = n
			n++
		}
		mu.Unlock()
	}
	g.MustAdd(noopStage("src", nil, 1, rec))
	g.MustAdd(noopStage("left", []string{"src"}, 2, rec))
	g.MustAdd(noopStage("right", []string{"src"}, 2, rec))
	g.MustAdd(noopStage("sink", []string{"left", "right"}, 1, rec))
	if _, err := g.Run(context.Background(), mgr); err != nil {
		t.Fatal(err)
	}
	if pos["src"] != 0 {
		t.Errorf("src ran at position %d", pos["src"])
	}
	if pos["sink"] != 3 {
		t.Errorf("sink ran at position %d, want last", pos["sink"])
	}
}

func TestIndependentStagesOverlap(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	var mu sync.Mutex
	active, peak := 0, 0
	mk := func(name string) Stage {
		return Stage{Name: name, Parallelism: 1, Run: func(ctx context.Context, tc core.TaskContext, _ int) error {
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			tc.Sleep(ctx, 2*time.Second)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		}}
	}
	g.MustAdd(mk("a"))
	g.MustAdd(mk("b"))
	if _, err := g.Run(context.Background(), mgr); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("independent stages did not overlap (peak=%d)", peak)
	}
}

func TestParallelismFanOut(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	var count sync.Map
	g.MustAdd(Stage{Name: "fan", Parallelism: 8, Run: func(_ context.Context, _ core.TaskContext, idx int) error {
		count.Store(idx, true)
		return nil
	}})
	res, err := g.Run(context.Background(), mgr)
	if err != nil {
		t.Fatal(err)
	}
	if res["fan"].Tasks != 8 {
		t.Fatalf("tasks = %d, want 8", res["fan"].Tasks)
	}
	for i := 0; i < 8; i++ {
		if _, ok := count.Load(i); !ok {
			t.Errorf("task %d never ran", i)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := New()
	g.MustAdd(Stage{Name: "a", Deps: []string{"b"}, Run: func(context.Context, core.TaskContext, int) error { return nil }})
	g.MustAdd(Stage{Name: "b", Deps: []string{"a"}, Run: func(context.Context, core.TaskContext, int) error { return nil }})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestUnknownDependencyRejected(t *testing.T) {
	g := New()
	g.MustAdd(Stage{Name: "a", Deps: []string{"ghost"}, Run: func(context.Context, core.TaskContext, int) error { return nil }})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Fatalf("err = %v, want unknown-stage error", err)
	}
}

func TestDuplicateStageRejected(t *testing.T) {
	g := New()
	g.MustAdd(Stage{Name: "a", Run: func(context.Context, core.TaskContext, int) error { return nil }})
	if err := g.Add(Stage{Name: "a", Run: func(context.Context, core.TaskContext, int) error { return nil }}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestStageValidation(t *testing.T) {
	g := New()
	if err := g.Add(Stage{Run: func(context.Context, core.TaskContext, int) error { return nil }}); err == nil {
		t.Error("anonymous stage accepted")
	}
	if err := g.Add(Stage{Name: "x"}); err == nil {
		t.Error("nil Run accepted")
	}
}

func TestFailingStageAbortsDownstream(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	boom := errors.New("boom")
	downstreamRan := false
	g.MustAdd(Stage{Name: "bad", Run: func(context.Context, core.TaskContext, int) error { return boom }})
	g.MustAdd(Stage{Name: "after", Deps: []string{"bad"}, Run: func(context.Context, core.TaskContext, int) error {
		downstreamRan = true
		return nil
	}})
	_, err := g.Run(context.Background(), mgr)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want stage-bad failure", err)
	}
	if downstreamRan {
		t.Fatal("downstream stage ran after dependency failure")
	}
}

func TestStageResultTiming(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	g.MustAdd(Stage{Name: "s", Parallelism: 2, Run: func(ctx context.Context, tc core.TaskContext, _ int) error {
		tc.Sleep(ctx, time.Second)
		return nil
	}})
	res, err := g.Run(context.Background(), mgr)
	if err != nil {
		t.Fatal(err)
	}
	if d := res["s"].Ended.Sub(res["s"].Started); d != time.Second {
		t.Fatalf("elapsed = %v, want 1s modeled", d)
	}
}

// TestPureStageRunsOffToken pins the Stage.Pure contract on the virtual
// clock: pure kernels execute as a parallel compute phase (real CPU,
// run-varying wall durations) yet their results and the stage's modeled
// timing are deterministic, and modeled time does not advance across a
// stage that only computes.
func TestPureStageRunsOffToken(t *testing.T) {
	mgr, clock := newMgr(t)
	start := clock.Now()
	g := New()
	results := make([]uint64, 8)
	g.MustAdd(Stage{Name: "kernel", Parallelism: len(results), Pure: true,
		Run: func(_ context.Context, _ core.TaskContext, idx int) error {
			acc := uint64(idx + 1)
			for i := 0; i < 50_000; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			results[idx] = acc
			return nil
		}})
	res, err := g.Run(context.Background(), mgr)
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.Now(); !got.Equal(start) {
		t.Errorf("pure stage advanced modeled time: %v -> %v", start, got)
	}
	if d := res["kernel"].Ended.Sub(res["kernel"].Started); d != 0 {
		t.Errorf("pure stage modeled elapsed = %v, want 0", d)
	}
	for i, r := range results {
		if r == 0 {
			t.Errorf("results[%d] unset: kernel did not run", i)
		}
	}
}

// TestPureStageErrorPropagates checks that a failing pure kernel still
// aborts the graph with its own error.
func TestPureStageErrorPropagates(t *testing.T) {
	mgr, _ := newMgr(t)
	g := New()
	boom := errors.New("kernel exploded")
	g.MustAdd(Stage{Name: "bad", Pure: true,
		Run: func(context.Context, core.TaskContext, int) error { return boom }})
	if _, err := g.Run(context.Background(), mgr); err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped kernel error", err)
	}
}
