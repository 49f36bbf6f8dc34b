package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/plan"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// testEnv builds a manager over a local service and an HPC simulator.
type testEnv struct {
	clock   *vclock.Virtual
	reg     *saga.Registry
	cluster *hpc.Cluster
	mgr     *Manager
}

func newEnv(t *testing.T, cfg Config, hpcCfg hpc.Config) *testEnv {
	t.Helper()
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 64, clock))
	hpcCfg.Clock = clock
	if hpcCfg.Name == "" {
		hpcCfg.Name = "hpcA"
	}
	cluster := hpc.New(hpcCfg)
	reg.Register(cluster)
	cfg.Registry = reg
	cfg.Clock = clock
	mgr := NewManager(cfg)
	t.Cleanup(func() {
		mgr.Close()
		cluster.Close()
	})
	return &testEnv{clock: clock, reg: reg, cluster: cluster, mgr: mgr}
}

func quickUnit(name string, d time.Duration) UnitDescription {
	return UnitDescription{
		Name: name,
		Run: func(ctx context.Context, tc TaskContext) error {
			if !tc.Sleep(ctx, d) {
				return ctx.Err()
			}
			return nil
		},
	}
}

func TestUnitRunsOnLocalPilot(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	p, err := env.mgr.SubmitPilot(PilotDescription{Name: "p", Resource: "local://lh", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	u, err := env.mgr.SubmitUnit(quickUnit("u", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	state, err := u.Wait(context.Background())
	if state != UnitDone || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if u.Pilot() != p {
		t.Errorf("unit bound to %v, want %v", u.Pilot(), p)
	}
	if u.Attempts() != 1 {
		t.Errorf("attempts = %d, want 1", u.Attempts())
	}
	if u.Runtime() <= 0 {
		t.Errorf("runtime = %v, want > 0", u.Runtime())
	}
}

func TestLateBindingUnitsBeforePilot(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 2, CoresPerNode: 4})
	// Submit units first: the decoupling of workload and resource
	// acquisition is the essence of the pilot-abstraction.
	units, err := env.mgr.SubmitUnits([]UnitDescription{
		quickUnit("a", time.Second), quickUnit("b", time.Second), quickUnit("c", time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.mgr.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want 3", env.mgr.QueueDepth())
	}
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 8, Walltime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if s, err := u.Wait(context.Background()); s != UnitDone {
			t.Fatalf("unit %s state=%v err=%v", u.ID(), s, err)
		}
	}
}

func TestWaitAll(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 8})
	for i := 0; i < 16; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), 500*time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, u := range env.mgr.Units() {
		if u.State() != UnitDone {
			t.Errorf("unit %s state = %v", u.ID(), u.State())
		}
	}
}

func TestWaitAllHonorsContext(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	// No pilot: the unit can never run.
	env.mgr.SubmitUnit(quickUnit("stuck", time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	env.clock.Go(func() {
		env.clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	if err := env.mgr.WaitAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if waited := env.clock.Since(vclock.Epoch); waited != time.Minute {
		t.Fatalf("WaitAll returned after %v, want at the cancel instant (1m)", waited)
	}
}

func TestSlotAccountingNeverOversubscribes(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	running, peak := 0, 0 // touched on the executor's token only
	for i := 0; i < 32; i++ {
		env.mgr.SubmitUnit(UnitDescription{
			Cores: 2,
			Run: func(ctx context.Context, tc TaskContext) error {
				running += tc.Cores
				if running > peak {
					peak = running
				}
				tc.Sleep(ctx, 200*time.Millisecond)
				running -= tc.Cores
				return nil
			},
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if peak != 4 {
		t.Fatalf("peak cores in use = %d, want exactly the pilot capacity 4", peak)
	}
}

func TestUnitTooLargeForAnyPilotStaysPending(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(UnitDescription{Cores: 8, Run: func(ctx context.Context, tc TaskContext) error { return nil }})
	env.clock.Sleep(context.Background(), time.Hour)
	if s := u.State(); s != UnitPending {
		t.Fatalf("state = %v, want Pending (no pilot large enough)", s)
	}
}

func TestFailedUnit(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	boom := errors.New("boom")
	u, _ := env.mgr.SubmitUnit(UnitDescription{Run: func(context.Context, TaskContext) error { return boom }})
	state, err := u.Wait(context.Background())
	if state != UnitFailed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

// TestWaitersParkedBeforeTheFinishWakeInParkOrder: a unit has no done event
// until a Wait parks on it; the first such Wait makes it and the later ones
// park on the same event, and the finish wakes them all at its own instant
// in the order they parked — here the reverse of the order they were
// spawned in.
func TestWaitersParkedBeforeTheFinishWakeInParkOrder(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	ctx := context.Background()
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 1})
	u, err := env.mgr.SubmitUnit(quickUnit("x", 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	env.mgr.mu.Lock()
	made := u.done != nil
	env.mgr.mu.Unlock()
	if made {
		t.Fatal("a unit nobody waits on has a done event")
	}
	var woke []int // appended on the executor's token
	var at []time.Duration
	waiters := vclock.NewGroup(env.clock)
	for i := 0; i < 4; i++ {
		waiters.Add(1)
		env.clock.Go(func() {
			defer waiters.Done()
			env.clock.Sleep(ctx, time.Duration(4-i)*time.Second)
			if s, err := u.Wait(ctx); s != UnitDone || err != nil {
				t.Errorf("waiter %d: %v, %v", i, s, err)
			}
			woke = append(woke, i)
			at = append(at, env.clock.Since(vclock.Epoch))
		})
	}
	waiters.Wait()
	end := u.EndTime().Sub(vclock.Epoch)
	if !slices.Equal(woke, []int{3, 2, 1, 0}) {
		t.Fatalf("waiters woke in order %v, want the park order [3 2 1 0]", woke)
	}
	if slices.ContainsFunc(at, func(a time.Duration) bool { return a != end }) || end < 10*time.Second {
		t.Fatalf("waiters woke at %v, want all at the finish instant %v", at, end)
	}
}

// TestWaitOnATerminalUnitParksNobody: a Wait after the finish answers at
// once — the state and the unit's error, or ctx.Err() if ctx is done —
// without making an event, taking a scheduling decision or moving time.
func TestWaitOnATerminalUnitParksNobody(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.clock.StartRecorder(vclock.RecorderConfig{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 1})
	boom := errors.New("boom")
	u, err := env.mgr.SubmitUnit(UnitDescription{Run: func(context.Context, TaskContext) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.mgr.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, now := env.clock.RecorderState().Decisions, env.clock.Now()
	if s, err := u.Wait(context.Background()); s != UnitFailed || !errors.Is(err, boom) {
		t.Fatalf("Wait after the finish: %v, %v; want Failed, boom", s, err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := u.Wait(canceled); s != UnitFailed || !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after the finish with a canceled context: %v, %v; want Failed, Canceled", s, err)
	}
	if d := env.clock.RecorderState().Decisions; d != before || !env.clock.Now().Equal(now) {
		t.Fatalf("Waits on a terminal unit took %d decisions and moved time to %v", d-before, env.clock.Now())
	}
	env.mgr.mu.Lock()
	made := u.done != nil
	env.mgr.mu.Unlock()
	if made {
		t.Fatal("a Wait on a terminal unit made a done event")
	}
}

// TestBindOutsideTheOfferPanics: the planner has dequeued a unit by the
// time it calls Bind, so a Bind to a pilot the tick did not offer would
// lose the unit and hang WaitAll; it panics instead of returning quietly.
func TestBindOutsideTheOfferPanics(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	u, err := env.mgr.SubmitUnit(quickUnit("x", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bind to a pilot the tick did not offer returned")
		}
	}()
	env.mgr.mu.Lock()
	defer env.mgr.mu.Unlock()
	env.mgr.exec.Bind(plan.UnitSpec{ID: u.id, Ordinal: 1, Cores: 1}, "pilot-404")
}

func TestPilotWalltimeRequeuesUnits(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	// Short-walltime pilot dies mid-unit; a second healthy pilot picks the
	// unit up again (MaxRetries=2).
	env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: 5 * time.Second})
	started := vclock.NewEvent(env.clock)
	attempts := 0
	u, _ := env.mgr.SubmitUnit(UnitDescription{
		MaxRetries: 2,
		Run: func(ctx context.Context, tc TaskContext) error {
			attempts++
			if attempts == 1 {
				started.Fire()
				// First attempt outlives the pilot walltime.
				tc.Sleep(ctx, time.Hour)
				return ctx.Err()
			}
			return nil
		},
	})
	// The healthy pilot must not exist until the first attempt is running
	// on the doomed one — otherwise the scheduler can start the unit
	// directly on it, no walltime kill happens, and the unit completes in
	// one attempt.
	started.Wait(context.Background())
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	state, err := u.Wait(ctx)
	if state != UnitDone {
		t.Fatalf("state=%v err=%v, want Done after retry", state, err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

func TestPilotWalltimeFailsUnitWithoutRetries(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: 2 * time.Second})
	u, _ := env.mgr.SubmitUnit(UnitDescription{
		Run: func(ctx context.Context, tc TaskContext) error {
			tc.Sleep(ctx, time.Hour)
			return ctx.Err()
		},
	})
	state, err := u.Wait(context.Background())
	if state != UnitFailed {
		t.Fatalf("state=%v err=%v, want Failed (no retries)", state, err)
	}
}

func TestMultiplePilotsShareQueue(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	p1, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	p2, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: time.Hour})
	for i := 0; i < 24; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), 500*time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if p1.UnitsCompleted() == 0 || p2.UnitsCompleted() == 0 {
		t.Errorf("units not spread: p1=%d p2=%d", p1.UnitsCompleted(), p2.UnitsCompleted())
	}
	if p1.UnitsCompleted()+p2.UnitsCompleted() != 24 {
		t.Errorf("total = %d, want 24", p1.UnitsCompleted()+p2.UnitsCompleted())
	}
}

func TestPilotStartupTimeMeasured(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 1, CoresPerNode: 4, QueueWait: dist.Constant(10)})
	p, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: time.Hour})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 0))
	u.Wait(context.Background())
	if st := p.StartupTime(); st != 10*time.Second {
		t.Errorf("startup = %v, want the 10s queue wait", st)
	}
}

func TestUnitStateStrings(t *testing.T) {
	want := map[UnitState]string{
		UnitNew: "New", UnitPending: "Pending", UnitScheduled: "Scheduled",
		UnitStaging: "Staging", UnitRunning: "Running", UnitDone: "Done",
		UnitFailed: "Failed", UnitCanceled: "Canceled",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if !UnitDone.Terminal() || UnitRunning.Terminal() {
		t.Error("Terminal() wrong")
	}
	wantP := map[PilotState]string{
		PilotPending: "Pending", PilotRunning: "Running", PilotDone: "Done",
		PilotFailed: "Failed", PilotCanceled: "Canceled",
	}
	for s, w := range wantP {
		if s.String() != w {
			t.Errorf("pilot %d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.Close()
	if _, err := env.mgr.SubmitUnit(quickUnit("x", 0)); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 1}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
}

func TestCloseCancelsPendingUnits(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", time.Second)) // no pilot
	env.mgr.Close()
	if s := u.State(); s != UnitCanceled {
		t.Fatalf("state = %v, want Canceled after Close", s)
	}
}

func TestUnknownResourceRejected(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://nowhere", Cores: 1}); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestNilRunRejected(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	if _, err := env.mgr.SubmitUnit(UnitDescription{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestOnUnitChangeObservesLifecycle(t *testing.T) {
	var mu sync.Mutex
	seen := map[UnitState]bool{}
	env := newEnv(t, Config{OnUnitChange: func(_ *ComputeUnit, s UnitState) {
		mu.Lock()
		seen[s] = true
		mu.Unlock()
	}}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 100*time.Millisecond))
	u.Wait(context.Background())
	mu.Lock()
	defer mu.Unlock()
	for _, s := range []UnitState{UnitPending, UnitScheduled, UnitRunning, UnitDone} {
		if !seen[s] {
			t.Errorf("state %v not observed", s)
		}
	}
}

func TestUnitMetricsSummaries(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 8})
	for i := 0; i < 8; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), time.Second))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env.mgr.WaitAll(ctx)
	w, r, tt := env.mgr.UnitMetrics()
	if w.N != 8 || r.N != 8 || tt.N != 8 {
		t.Fatalf("sample sizes = %d/%d/%d, want 8", w.N, r.N, tt.N)
	}
	if r.Mean != 1 {
		t.Errorf("mean runtime = %gs, want 1s", r.Mean)
	}
	if tt.Mean < r.Mean {
		t.Errorf("turnaround %g < runtime %g", tt.Mean, r.Mean)
	}
}

func TestGracefulShutdownEndsPilotDone(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	p, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 200*time.Millisecond))
	u.Wait(context.Background())
	p.Shutdown()
	state, err := p.Wait(context.Background())
	if state != PilotDone || err != nil {
		t.Fatalf("state=%v err=%v, want Done", state, err)
	}
}

// rogueScheduler answers with whatever pick returns, offered or not.
type rogueScheduler struct {
	pick func(candidates []*Pilot) *Pilot
}

func (rogueScheduler) Name() string { return "rogue" }

func (s rogueScheduler) SelectPilot(_ *ComputeUnit, candidates []*Pilot, _ DataService) *Pilot {
	return s.pick(candidates)
}

// A scheduler that returns a pilot it was not offered — one that is full,
// or one this manager has never seen — must cost the unit a tick, not the
// pilot its slot accounting or the manager the unit: it stays queued and
// binds as soon as the scheduler answers from the candidate set.
func TestSchedulerChoiceOutsideCandidatesDefersUnit(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 8, clock))
	var answer *Pilot // nil: conform (first candidate)
	mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(3),
		Scheduler: rogueScheduler{pick: func(c []*Pilot) *Pilot {
			if answer != nil {
				return answer
			}
			return c[0]
		}}})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pA, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	pB, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pilot{pA, pB} {
		if err := p.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.SubmitUnit(quickUnit("hold", time.Hour)); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(ctx, time.Second)
	if pA.FreeCores() != 0 {
		t.Fatalf("hold unit did not fill pA: %d cores free", pA.FreeCores())
	}

	u, err := mgr.SubmitUnit(quickUnit("late", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for _, rogue := range []*Pilot{pA, {id: "pilot-404"}} {
		answer = rogue
		mgr.Kick()
		clock.Sleep(ctx, time.Second)
		if s := u.State(); s != UnitPending || mgr.QueueDepth() != 1 {
			t.Fatalf("scheduler answered %s (not offered): unit %v, queue depth %d; want Pending and 1", rogue.id, s, mgr.QueueDepth())
		}
		if pA.FreeCores() != 0 || pB.FreeCores() != 2 {
			t.Fatalf("scheduler answered %s (not offered): free cores pA %d pB %d, want 0 and 2", rogue.id, pA.FreeCores(), pB.FreeCores())
		}
	}
	answer = nil
	mgr.Kick()
	if s, err := u.Wait(ctx); s != UnitDone || u.Pilot() != pB {
		t.Fatalf("unit ended %v on %v (%v), want Done on pB", s, u.Pilot(), err)
	}
}

// TestWorkQueueKeepsItsArray: the agent's work queue is popped from the
// front and pushed at the back for the pilot's whole life, so a pop must
// give the slot back to the next push (not strand it behind a re-sliced
// head) and must not leave the popped unit reachable from it.
func TestWorkQueueKeepsItsArray(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := &Pilot{manager: &Manager{}, workN: vclock.NewNotifier(clock)}
	a, b, c := &ComputeUnit{id: "a"}, &ComputeUnit{id: "b"}, &ComputeUnit{id: "c"}
	p.pushWork(a)
	p.pushWork(b)
	array := &p.workQ[0]
	for i := 0; i < 100; i++ {
		if got := p.popWork(); got != a {
			t.Fatalf("round %d: popped %v, want the queue's head", i, got.id)
		}
		if tail := p.workQ[:2][1]; tail != nil {
			t.Fatalf("round %d: the vacated slot still holds %s", i, tail.id)
		}
		p.pushWork(c)
		if &p.workQ[0] != array {
			t.Fatalf("round %d: push after pop moved the queue to a new array", i)
		}
		a, b, c = b, c, a
	}
	if p.QueuedUnits() != 2 || p.popWork() != a || p.popWork() != b || p.popWork() != nil {
		t.Fatal("queue order lost")
	}
}

// TestManagerAccessorsRaceCleanFromOutside checks the one-lock claim with a
// real thread: a bare goroutine — no Adopt, no clock, so only the
// accessors' own locking orders it against the run — polls every exported
// read accessor of the manager, its pilots and its units while a 200-unit
// backlog drains onto three pilots, one pilot is killed mid-run and the
// reconciler scans. Under -race any pilot or unit field read or written
// outside m.mu is a report.
func TestManagerAccessorsRaceCleanFromOutside(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 64, clock))
	mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(9)})
	defer mgr.Close()
	ctx := context.Background()
	var pilots []*Pilot
	for i := 0; i < 3; i++ {
		p, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		pilots = append(pilots, p)
	}
	descs := make([]UnitDescription, 200)
	for i := range descs {
		descs[i] = UnitDescription{MaxRetries: 3, Run: func(ctx context.Context, tc TaskContext) error {
			if !tc.Sleep(ctx, time.Duration(1+i%3)*time.Second) {
				return ctx.Err()
			}
			return nil
		}}
	}
	units, err := mgr.SubmitUnits(descs)
	if err != nil {
		t.Fatal(err)
	}
	// Participants wait on every tenth unit, so its done event is made and
	// fired while the poller runs. Only the terminal path of Wait is under
	// test here: the poller waits on terminal units alone, which answer
	// from state and err under m.mu without touching done. The live path —
	// making done, parking on it, finishUnit firing it — runs on
	// participants only, and the executor's token handoff orders every
	// participant step, so an unlocked access to done there is ordered as
	// well and no -race test can report it.
	waiters := vclock.NewGroup(clock)
	for i := 0; i < len(units); i += 10 {
		waiters.Add(1)
		clock.Go(func() {
			defer waiters.Done()
			units[i].Wait(ctx)
		})
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()

	// A bare poller. Each accessor is read in a run of its own — over every
	// unit, over the pilots 64 times — so one that skipped m.mu would leave
	// a lock-free stretch long enough for the run's writes to land in.
	reads := []func(){
		func() { mgr.QueueDepth() },
		func() { mgr.Watermarks() },
		func() { mgr.UnitMetrics() },
	}
	for _, read := range []func(*Pilot) any{
		func(p *Pilot) any { return p.State() },
		func(p *Pilot) any { return p.Err() },
		func(p *Pilot) any { return p.Site() },
		func(p *Pilot) any { return p.FreeCores() },
		func(p *Pilot) any { return p.RunningUnits() },
		func(p *Pilot) any { return p.QueuedUnits() },
		func(p *Pilot) any { return p.UnitsCompleted() },
		func(p *Pilot) any { return p.StartupTime() },
	} {
		reads = append(reads, func() {
			for range 64 {
				for _, p := range mgr.Pilots() {
					read(p)
				}
			}
		})
	}
	for _, read := range []func(*ComputeUnit) any{
		func(u *ComputeUnit) any { return u.State() },
		func(u *ComputeUnit) any { return u.Err() },
		func(u *ComputeUnit) any { return u.Pilot() },
		func(u *ComputeUnit) any { return u.Attempts() },
		func(u *ComputeUnit) any { return u.EndTime() },
		func(u *ComputeUnit) any { return u.WaitingTime() },
		func(u *ComputeUnit) any { return u.Runtime() },
		func(u *ComputeUnit) any { return u.TurnaroundTime() },
		func(u *ComputeUnit) any {
			// Only a terminal unit: Wait on a live one parks, and a bare
			// goroutine cannot.
			if !u.State().Terminal() {
				return nil
			}
			_, err := u.Wait(canceled)
			return err
		},
	} {
		reads = append(reads, func() {
			for _, u := range mgr.Units() {
				read(u)
			}
		})
	}
	var polls atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			for _, read := range reads {
				select {
				case <-stop:
					return
				default:
				}
				read()
				polls.Add(1)
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	// Step the world a quarter second at a time, each step only once the
	// poller has finished another run, so its reads interleave with the
	// binds, finishes, the kill's requeues and the scans rather than all
	// landing before or after them.
	for step := 0; ; step++ {
		if step == 400 {
			t.Fatalf("backlog not drained after %d steps", step)
		}
		for target := polls.Load() + 1; polls.Load() < target; {
			runtime.Gosched()
		}
		if step == 8 {
			pilots[2].Kill()
		}
		if step%8 == 4 {
			mgr.ReconcileOnce()
		}
		if slices.IndexFunc(units, func(u *ComputeUnit) bool { return !u.State().Terminal() }) < 0 {
			break
		}
		clock.Sleep(ctx, 250*time.Millisecond)
	}
	waiters.Wait()
	if s := pilots[2].State(); s != PilotCanceled {
		t.Fatalf("killed pilot is %v, want Canceled", s)
	}
	retried := 0
	for _, u := range units {
		if s := u.State(); s != UnitDone {
			t.Fatalf("unit %s ended %v after %d attempts: %v", u.ID(), s, u.Attempts(), u.Err())
		}
		if u.Attempts() > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no unit was retried: the kill missed the backlog")
	}
}
