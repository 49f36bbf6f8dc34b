package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// These tests pin the control plane's retry contract: MaxRetries bounds
// TOTAL dispatches at MaxRetries+1, pre-start strandings consume the same
// budget as mid-execution pilot losses, and every retry re-enters the
// queue at a strictly later virtual instant (no zero-delay storms).

// deadService is a saga backend whose pilots come up and immediately die
// on the resource: the payload runs with an already-canceled context, so
// the agent registers with the manager (the pilot looks Running) and then
// exits before picking up any work. The job itself stays Running until
// the test releases it, which models the window in which a dying pilot
// still attracts dispatches. Units scheduled onto such a pilot are
// stranded in its work queue — the pre-start failure class.
type deadService struct {
	clock vclock.Clock

	mu   sync.Mutex
	next int
	jobs []*deadJob
}

func (s *deadService) URL() string      { return "dead://pool" }
func (s *deadService) Site() infra.Site { return "dead" }
func (s *deadService) Close() error     { return nil }

func (s *deadService) Submit(d saga.Description) (saga.Job, error) {
	now := s.clock.Now()
	s.mu.Lock()
	s.next++
	j := &deadJob{
		id:        fmt.Sprintf("dead.%d", s.next),
		state:     saga.Running,
		submitted: now,
		started:   now,
		release:   vclock.NewEvent(s.clock),
		done:      vclock.NewEvent(s.clock),
	}
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.clock.Go(func() {
		_ = d.Payload(ctx, infra.Allocation{
			ID: j.id, Site: s.Site(), Cores: d.TotalCores, Nodes: []string{"dead"}, Granted: now,
		})
		j.release.Wait(context.Background())
		j.mu.Lock()
		j.state = saga.Failed
		j.err = errors.New("dead: resource reclaimed")
		j.ended = s.clock.Now()
		j.mu.Unlock()
		j.done.Fire()
	})
	return j, nil
}

// failPilot releases the i-th submitted job, letting it reach Failed.
func (s *deadService) failPilot(i int) {
	s.mu.Lock()
	j := s.jobs[i]
	s.mu.Unlock()
	j.release.Fire()
}

// releaseAll unblocks every job (cleanup path, so Close never hangs on a
// failed test).
func (s *deadService) releaseAll() {
	s.mu.Lock()
	jobs := append([]*deadJob(nil), s.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.release.Fire()
	}
}

type deadJob struct {
	id string

	mu        sync.Mutex
	state     saga.JobState
	err       error
	submitted time.Time
	started   time.Time
	ended     time.Time

	release *vclock.Event
	done    *vclock.Event
}

func (j *deadJob) ID() string { return j.id }

func (j *deadJob) State() saga.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *deadJob) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *deadJob) Wait(ctx context.Context) (saga.JobState, error) {
	if j.done.Wait(ctx) {
		return j.State(), j.Err()
	}
	return j.State(), ctx.Err()
}

func (j *deadJob) Cancel() {}

func (j *deadJob) SubmitTime() time.Time { return j.submitted }
func (j *deadJob) StartTime() time.Time  { return j.started }

func (j *deadJob) EndTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ended
}

// waitUnitState polls in modeled time until the unit reaches the wanted
// state.
func waitUnitState(t *testing.T, clock vclock.Clock, u *core.ComputeUnit, want core.UnitState, timeout time.Duration) {
	t.Helper()
	for deadline := clock.Now().Add(timeout); clock.Now().Before(deadline); {
		if u.State() == want {
			return
		}
		clock.Sleep(context.Background(), time.Millisecond)
	}
	t.Fatalf("unit %s stuck in %v, want %v", u.ID(), u.State(), want)
}

// TestPreStartStrandsChargeRetryBudget is the stranded-unit budget
// regression: a pilot that dies before the unit is ever picked up must
// consume a retry, so a unit with MaxRetries=1 fails after its second
// stranding instead of being requeued forever. (Before the planner,
// pre-start requeues were free: this test never terminated.)
func TestPreStartStrandsChargeRetryBudget(t *testing.T) {
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	svc := &deadService{clock: clock}
	reg.Register(svc)
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: dist.NewStream(42)})
	defer mgr.Close()
	defer svc.releaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	runs := 0
	u, err := mgr.SubmitUnit(core.UnitDescription{
		Name: "victim", MaxRetries: 1,
		Run: func(context.Context, core.TaskContext) error {
			runs++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		p, err := mgr.SubmitPilot(core.PilotDescription{
			Name: fmt.Sprintf("doomed-%d", round), Resource: "dead://pool", Cores: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
		// The unit binds to the (already dead) pilot…
		waitUnitState(t, clock, u, core.UnitScheduled, 10*time.Second)
		// …and is stranded when the placeholder job fails.
		svc.failPilot(round)
		if s, _ := p.Wait(ctx); s != core.PilotFailed {
			t.Fatalf("round %d: pilot ended %v, want Failed", round, s)
		}
	}

	s, werr := u.Wait(ctx)
	if s != core.UnitFailed {
		t.Fatalf("unit ended %v (err %v), want Failed after two strandings with MaxRetries=1", s, werr)
	}
	if got := u.Attempts(); got != 0 {
		t.Errorf("unit reports %d execution attempts, want 0 (never picked up)", got)
	}
	if runs != 0 {
		t.Errorf("unit body ran %d times on dead pilots, want 0", runs)
	}
}

// TestMaxRetriesBoundsTotalAttempts pins the MaxRetries contract: N
// means N+1 total dispatches, exactly — MaxRetries=0 is one attempt,
// MaxRetries=2 is three. Each attempt lands on a fresh short-walltime
// pilot that dies under the (hour-long) unit.
func TestMaxRetriesBoundsTotalAttempts(t *testing.T) {
	for _, tc := range []struct {
		name         string
		maxRetries   int
		wantAttempts int
	}{
		{"zero-retries-one-attempt", 0, 1},
		{"two-retries-three-attempts", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclocktest.Adopted(t)
			reg := saga.NewRegistry()
			reg.Register(saga.NewLocalService("box", 8, clock))
			mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: dist.NewStream(11)})
			defer mgr.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			runs := 0
			u, err := mgr.SubmitUnit(core.UnitDescription{
				Name: "hog", Cores: 4, MaxRetries: tc.maxRetries,
				Run: func(ctx context.Context, tcx core.TaskContext) error {
					runs++
					tcx.Sleep(ctx, time.Hour)
					return ctx.Err()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// One doomed pilot per possible attempt (plus one spare for the
			// window between pilot death and the unit's verdict): if the
			// budget worked, the extras go unused.
			for i := 0; i < tc.wantAttempts+2 && !u.State().Terminal(); i++ {
				p, err := mgr.SubmitPilot(core.PilotDescription{
					Name: fmt.Sprintf("short-%d", i), Resource: "local://box",
					Cores: 4, Walltime: 40 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Wait(ctx); err != nil && ctx.Err() != nil {
					t.Fatal(err)
				}
			}
			s, werr := u.Wait(ctx)
			if s != core.UnitFailed {
				t.Fatalf("unit ended %v (err %v), want Failed", s, werr)
			}
			if got := u.Attempts(); got != tc.wantAttempts {
				t.Errorf("Attempts() = %d, want exactly %d", got, tc.wantAttempts)
			}
			if runs != tc.wantAttempts {
				t.Errorf("unit body ran %d times, want exactly %d", runs, tc.wantAttempts)
			}
		})
	}
}

// TestRetryInstantsStrictlyIncreaseDeterministically is the zero-delay
// retry-storm regression: every retry must be re-dispatched at a virtual
// instant strictly after the failure that caused it (backoff), the
// sequence of dispatch instants must be strictly increasing, and the
// whole observable timeline must be bit-identical across five same-seed
// runs (the jitter is seeded, not ambient). Run under -race by the CI
// race leg.
func TestRetryInstantsStrictlyIncreaseDeterministically(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type ev struct {
		State core.UnitState
		At    time.Duration
	}
	run := func() []ev {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		defer clock.Leave()
		reg := saga.NewRegistry()
		reg.Register(saga.NewLocalService("box", 64, clock))
		var mu sync.Mutex
		var events []ev
		mgr := core.NewManager(core.Config{
			Registry: reg, Clock: clock, Stream: dist.NewStream(42),
			OnUnitChange: func(_ *core.ComputeUnit, s core.UnitState) {
				mu.Lock()
				events = append(events, ev{State: s, At: clock.Since(vclock.Epoch)})
				mu.Unlock()
			},
		})
		// Three staggered-walltime pilots: the unit's three attempts ride
		// pilot 1 (dies at 30s), pilot 2 (60s), pilot 3 (90s).
		for i, w := range []time.Duration{30 * time.Second, 60 * time.Second, 90 * time.Second} {
			if _, err := mgr.SubmitPilot(core.PilotDescription{
				Name: fmt.Sprintf("p%d", i), Resource: "local://box", Cores: 8, Walltime: w,
			}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: "hog", Cores: 8, MaxRetries: 2,
			Run: func(ctx context.Context, tcx core.TaskContext) error {
				tcx.Sleep(ctx, time.Hour)
				return ctx.Err()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if s, werr := u.Wait(ctx); s != core.UnitFailed {
			t.Fatalf("unit ended %v (err %v), want Failed", s, werr)
		}
		mgr.Close()
		mu.Lock()
		defer mu.Unlock()
		return append([]ev(nil), events...)
	}

	base := run()
	var sched, pend []time.Duration
	for _, e := range base {
		switch e.State {
		case core.UnitScheduled:
			sched = append(sched, e.At)
		case core.UnitPending:
			pend = append(pend, e.At)
		}
	}
	if len(sched) != 3 || len(pend) != 3 {
		t.Fatalf("want 3 dispatches and 3 pending transitions (submit + 2 requeues), got %v", base)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] <= sched[i-1] {
			t.Fatalf("dispatch instants not strictly increasing: %v", sched)
		}
	}
	// pend[0] is the submission; pend[1], pend[2] are the requeues. Each
	// retry must wait out a backoff, never re-bind at the failure instant.
	for i := 1; i <= 2; i++ {
		if sched[i] <= pend[i] {
			t.Fatalf("retry %d re-dispatched at %v, not after its failure at %v (zero-delay storm)",
				i, sched[i], pend[i])
		}
	}
	for i := 2; i <= 5; i++ {
		if got := run(); !reflect.DeepEqual(base, got) {
			t.Fatalf("run %d diverged from run 1:\n base %v\n got  %v", i, base, got)
		}
	}
}
