package scheduler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// env wires a manager with two local "sites" so placement is observable.
type env struct {
	clock *vclock.Virtual
	mgr   *core.Manager
	data  *data.Service
}

func newEnv(t *testing.T, sched core.Scheduler) *env {
	t.Helper()
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("siteA", 32, clock))
	reg.Register(saga.NewLocalService("siteB", 32, clock))
	ds := data.NewService(data.Config{Clock: clock, DefaultLink: data.Link{Bandwidth: 12.5e6, Latency: 50 * time.Millisecond}})
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Scheduler: sched, Data: ds})
	t.Cleanup(mgr.Close)
	return &env{clock: clock, mgr: mgr, data: ds}
}

func (e *env) pilotAt(t *testing.T, site string, cores int) *core.Pilot {
	t.Helper()
	p, err := e.mgr.SubmitPilot(core.PilotDescription{Name: site, Resource: "local://" + site, Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the agent to register.
	if err := p.WaitRunning(context.Background()); err != nil {
		t.Fatalf("pilot at %s never started: %v", site, err)
	}
	return p
}

func sleepUnit(d time.Duration) core.UnitDescription {
	return core.UnitDescription{Run: func(ctx context.Context, tc core.TaskContext) error {
		tc.Sleep(ctx, d)
		return nil
	}}
}

func waitAll(t *testing.T, mgr *core.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitPicksFirstCandidate(t *testing.T) {
	e := newEnv(t, nil) // the manager's built-in default
	p1 := e.pilotAt(t, "siteA", 4)
	e.pilotAt(t, "siteB", 4)
	u, _ := e.mgr.SubmitUnit(sleepUnit(10 * time.Millisecond))
	u.Wait(context.Background())
	if u.Pilot() != p1 {
		t.Fatalf("unit ran on %v, want first pilot", u.Pilot().ID())
	}
}

func TestLeastLoadedPrefersFreestPilot(t *testing.T) {
	e := newEnv(t, LeastLoaded{})
	small := e.pilotAt(t, "siteA", 2)
	big := e.pilotAt(t, "siteB", 16)
	// A burst of units: least-loaded should put most on the big pilot.
	for i := 0; i < 18; i++ {
		e.mgr.SubmitUnit(sleepUnit(100 * time.Millisecond))
	}
	waitAll(t, e.mgr)
	if big.UnitsCompleted() <= small.UnitsCompleted() {
		t.Fatalf("least-loaded: big=%d small=%d", big.UnitsCompleted(), small.UnitsCompleted())
	}
}

func TestDataAwarePlacesAtDataSite(t *testing.T) {
	e := newEnv(t, DataAware{})
	e.pilotAt(t, "siteA", 4)
	pB := e.pilotAt(t, "siteB", 4)
	// Input lives at siteB.
	if err := e.data.Put(context.Background(), data.Unit{ID: "in", Content: []byte("x"), LogicalSize: 100e6, Site: "siteB"}); err != nil {
		t.Fatal(err)
	}
	u, _ := e.mgr.SubmitUnit(core.UnitDescription{
		InputData: []string{"in"},
		Run:       func(ctx context.Context, tc core.TaskContext) error { return nil },
	})
	state, err := u.Wait(context.Background())
	if state != core.UnitDone {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if u.Pilot() != pB {
		t.Fatalf("unit placed at %s, want siteB (data gravity)", u.Pilot().Site())
	}
	// Placement at the data site means no cross-site transfer happened.
	if st := e.data.Stats(); st.Replications != 0 {
		t.Errorf("stage-in replicated despite co-location: %+v", st)
	}
}

func TestDataAwareFallsBackWithoutData(t *testing.T) {
	e := newEnv(t, DataAware{})
	e.pilotAt(t, "siteA", 8)
	u, _ := e.mgr.SubmitUnit(sleepUnit(0))
	state, _ := u.Wait(context.Background())
	if state != core.UnitDone {
		t.Fatalf("state = %v", state)
	}
}

func TestDataAwareExplicitAffinityWins(t *testing.T) {
	e := newEnv(t, DataAware{})
	pA := e.pilotAt(t, "siteA", 4)
	e.pilotAt(t, "siteB", 4)
	e.data.Put(context.Background(), data.Unit{ID: "in2", Content: []byte("x"), LogicalSize: 100e6, Site: "siteB"})
	u, _ := e.mgr.SubmitUnit(core.UnitDescription{
		InputData:    []string{"in2"},
		AffinitySite: "siteA", // explicit affinity overrides data gravity
		Run:          func(ctx context.Context, tc core.TaskContext) error { return nil },
	})
	u.Wait(context.Background())
	if u.Pilot() != pA {
		t.Fatalf("unit placed at %s, want siteA (explicit affinity)", u.Pilot().Site())
	}
}

func TestDataAwareStrictDefersUntilSiteAvailable(t *testing.T) {
	e := newEnv(t, DataAware{Strict: true})
	e.pilotAt(t, "siteA", 4)
	e.data.Put(context.Background(), data.Unit{ID: "in3", Content: []byte("x"), LogicalSize: 100e6, Site: "siteB"})
	u, _ := e.mgr.SubmitUnit(core.UnitDescription{
		InputData: []string{"in3"},
		Run:       func(ctx context.Context, tc core.TaskContext) error { return nil },
	})
	// No pilot at siteB yet: unit must stay pending.
	e.clock.Sleep(context.Background(), time.Hour)
	if s := u.State(); s != core.UnitPending {
		t.Fatalf("state = %v, want Pending under strict data affinity", s)
	}
	pB := e.pilotAt(t, "siteB", 4)
	state, _ := u.Wait(context.Background())
	if state != core.UnitDone || u.Pilot() != pB {
		t.Fatalf("state=%v pilot=%v, want Done at siteB", state, u.Pilot())
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[string]core.Scheduler{
		"least-loaded":      LeastLoaded{},
		"data-aware":        DataAware{},
		"data-aware-strict": DataAware{Strict: true},
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestManyUnitsManyPilotsAllComplete(t *testing.T) {
	e := newEnv(t, LeastLoaded{})
	e.pilotAt(t, "siteA", 8)
	e.pilotAt(t, "siteB", 8)
	units := make([]*core.ComputeUnit, 0, 64)
	for i := 0; i < 64; i++ {
		u, err := e.mgr.SubmitUnit(sleepUnit(time.Duration(10+i) * time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	waitAll(t, e.mgr)
	for _, u := range units {
		if u.State() != core.UnitDone {
			t.Fatalf("unit %s = %v (%v)", u.ID(), u.State(), u.Err())
		}
	}
	_ = fmt.Sprint() // keep fmt import for debug ergonomics
}
