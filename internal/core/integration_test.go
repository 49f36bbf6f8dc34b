package core_test

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dist"
	"gopilot/internal/infra/htc"
	"gopilot/internal/saga"
	"gopilot/internal/vclock/vclocktest"
)

// These tests inject infrastructure failures under the pilot layer and
// check the abstraction's recovery behaviour — the "leaky abstraction"
// robustness the paper's §VI lessons demand.

func TestPilotOnEvictingHTCPoolFailsButUnitsRetryElsewhere(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	// An HTC pool that always evicts mid-run and has no retry budget: any
	// pilot placed there will be lost while units are executing.
	pool := htc.New(htc.Config{
		Name: "flaky", Slots: 8,
		EvictionRate: 1.0, MaxRetries: 0,
		MatchDelay: dist.Constant(0.1),
		Clock:      clock, Stream: dist.NewStream(3),
	})
	defer pool.Shutdown()
	reg.Register(saga.NewHTCService(pool, clock))
	reg.Register(saga.NewLocalService("safe", 8, clock))

	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgr.Close()

	flaky, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "flaky-pilot", Resource: "htc://flaky", Cores: 4, Walltime: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	u, err := mgr.SubmitUnit(core.UnitDescription{
		Name:       "survivor",
		MaxRetries: 3,
		Run: func(ctx context.Context, tc core.TaskContext) error {
			attempts++
			if tc.Site == "flaky" {
				// On the doomed pilot: run until the eviction kills us.
				tc.Sleep(ctx, time.Hour)
				return ctx.Err()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy pilot appears while (or after) the flaky one dies.
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "safe-pilot", Resource: "local://safe", Cores: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	state, err := u.Wait(ctx)
	if state != core.UnitDone {
		t.Fatalf("unit state=%v err=%v attempts=%d", state, err, attempts)
	}
	if u.Pilot().Site() != "safe" {
		t.Fatalf("unit finished at %q, want the safe site", u.Pilot().Site())
	}
	// The flaky pilot must have terminated unsuccessfully.
	if ps, _ := flaky.Wait(ctx); ps == core.PilotDone {
		t.Fatalf("flaky pilot ended %v, expected failure/cancel", ps)
	}
}

func TestTwoManagersShareOneBackend(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("shared", 64, clock))

	mgrA := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgrA.Close()
	mgrB := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgrB.Close()

	for _, m := range []*core.Manager{mgrA, mgrB} {
		if _, err := m.SubmitPilot(core.PilotDescription{Resource: "local://shared", Cores: 8}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := m.SubmitUnit(core.UnitDescription{Run: func(ctx context.Context, tc core.TaskContext) error {
				tc.Sleep(ctx, 200*time.Millisecond)
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgrA.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgrB.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestUnitWithInputDataButNoDataServiceRuns(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 4, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock}) // no Data
	defer mgr.Close()
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := mgr.SubmitUnit(core.UnitDescription{
		InputData: []string{"phantom"},
		Run: func(ctx context.Context, tc core.TaskContext) error {
			if tc.Data != nil {
				t.Error("task context has a data service")
			}
			return nil
		},
	})
	if s, err := u.Wait(context.Background()); s != core.UnitDone {
		t.Fatalf("state=%v err=%v", s, err)
	}
}

func TestStageInFailureFailsUnit(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 4, clock))
	ds := data.NewService(data.Config{Clock: clock})
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Data: ds})
	defer mgr.Close()
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 2})
	// Input data-unit was never registered: staging must fail the unit.
	u, _ := mgr.SubmitUnit(core.UnitDescription{
		InputData: []string{"never-registered"},
		Run:       func(context.Context, core.TaskContext) error { return nil },
	})
	state, err := u.Wait(context.Background())
	if state != core.UnitFailed || err == nil {
		t.Fatalf("state=%v err=%v, want Failed on stage-in", state, err)
	}
}

func TestManyUnitsManyRetriesDrainDeterministically(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 16, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgr.Close()
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 8})
	calls := 0
	for i := 0; i < 40; i++ {
		mgr.SubmitUnit(core.UnitDescription{
			MaxRetries: 2,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				// Deterministic single transient failure for every 4th call.
				if calls++; calls%4 == 0 {
					return context.DeadlineExceeded
				}
				return nil
			},
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	done, failed := 0, 0
	for _, u := range mgr.Units() {
		switch u.State() {
		case core.UnitDone:
			done++
		case core.UnitFailed:
			failed++
		}
	}
	// Task-body errors are not retried (only pilot loss is): exactly the
	// failures injected above fail, everything else completes.
	if done != 30 || failed != 10 {
		t.Fatalf("done=%d failed=%d, want 30 and 10", done, failed)
	}
}
