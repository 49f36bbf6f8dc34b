package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Drift-reconciliation regression: inject each of the three drift
// classes directly into agent/unit state (the kind of divergence a lost
// message or crashed agent produces), and require the reconcile loop to
// correct all of them at a deterministic virtual instant — the second
// scan after injection, per the anti-flap rule — bit-identically across
// five same-seed runs. The CI race leg runs this under -race; the test
// itself pins GOMAXPROCS=4 so the schedule pressure is reproducible.

// reconObservation is everything externally observable about one run.
type reconObservation struct {
	// OrphanFixedAt / MissingFixedAt: first polled instant (offsets from
	// the epoch, polled at X.5s) at which the injected capacity drift was
	// corrected.
	OrphanFixedAt  time.Duration
	MissingFixedAt time.Duration
	// PendEvents: the stranded unit's Pending-notification instants
	// (submission, then the reconciler's requeue).
	PendEvents []time.Duration
	// PendCharges: retry budget consumed by the stranded unit.
	PendCharges int
}

// sleepUntil advances the driver to the given offset from the epoch.
func sleepUntil(ctx context.Context, clock vclock.Clock, off time.Duration) {
	if d := off - clock.Since(vclock.Epoch); d > 0 {
		clock.Sleep(ctx, d)
	}
}

func runReconcileDriftWorkload(t *testing.T) reconObservation {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 64, clock))

	var mu sync.Mutex
	var pendEvents []time.Duration
	mgr := NewManager(Config{
		Registry: reg, Clock: clock, Stream: dist.NewStream(5),
		OnUnitChange: func(cu *ComputeUnit, s UnitState) {
			if cu.Description().Name == "pend" && s == UnitPending {
				mu.Lock()
				pendEvents = append(pendEvents, clock.Since(vclock.Epoch))
				mu.Unlock()
			}
		},
	})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// pilotO hosts the orphan, pilotD is the terminal pilot of the
	// state mismatch, pilotM the running pilot that "loses" its unit.
	pilotO, err := mgr.SubmitPilot(PilotDescription{Name: "pO", Resource: "local://box", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	pilotD, err := mgr.SubmitPilot(PilotDescription{Name: "pD", Resource: "local://box", Cores: 4, Walltime: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pilotM, err := mgr.SubmitPilot(PilotDescription{Name: "pM", Resource: "local://box", Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pilot{pilotO, pilotD, pilotM} {
		if err := p.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// uDone completes instantly on pilotO (the only 1-core-sized fit in
	// submission order); uRun occupies pilotM for an hour; uPend fits
	// nowhere and stays queued.
	uDone, err := mgr.SubmitUnit(UnitDescription{
		Name: "done", Cores: 1,
		Run: func(context.Context, TaskContext) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, werr := uDone.Wait(ctx); s != UnitDone {
		t.Fatalf("uDone ended %v (%v)", s, werr)
	}
	uRun, err := mgr.SubmitUnit(UnitDescription{
		Name: "run", Cores: 8,
		Run: func(ctx context.Context, tc TaskContext) error {
			tc.Sleep(ctx, time.Hour)
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	uPend, err := mgr.SubmitUnit(UnitDescription{
		Name: "pend", Cores: 32, MaxRetries: 3,
		Run: func(context.Context, TaskContext) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	if s, _ := pilotD.Wait(ctx); !s.Terminal() {
		t.Fatalf("walltime pilot ended %v, want terminal", s)
	}
	sleepUntil(ctx, clock, 10*time.Second)
	if uRun.State() != UnitRunning {
		t.Fatalf("uRun is %v at injection time, want Running", uRun.State())
	}

	// Inject the three drifts at t=10s, under the documented lock order.
	// Orphan: the agent re-acquired a terminal unit's slot.
	mgr.mu.Lock()
	pilotO.running[uDone] = struct{}{}
	pilotO.freeCores.Add(-int64(uDone.desc.Cores))
	mgr.mu.Unlock()
	// State mismatch: a live unit bound to an already-terminal pilot.
	mgr.mu.Lock()
	uPend.state = UnitScheduled
	uPend.pilot = pilotD
	mgr.mu.Unlock()
	// Missing on agent: a running pilot lost a bound unit's bookkeeping.
	mgr.mu.Lock()
	delete(pilotM.running, uRun)
	pilotM.freeCores.Add(int64(uRun.desc.Cores))
	mgr.mu.Unlock()

	// Poll every virtual second, offset half a second past the reconcile
	// ticks so each sample sees a fully settled instant. Scans run at
	// t=30s (first sighting) and t=60s (confirmation + correction).
	var obs reconObservation
	for off := 10*time.Second + 500*time.Millisecond; off <= 70*time.Second; off += time.Second {
		sleepUntil(ctx, clock, off)
		if obs.OrphanFixedAt == 0 && pilotO.FreeCores() == 1 {
			obs.OrphanFixedAt = off
		}
		if obs.MissingFixedAt == 0 && pilotM.FreeCores() == 0 {
			obs.MissingFixedAt = off
		}
	}

	// The corrected world: reservations restored, the mismatched unit
	// requeued with one retry charged, the running unit untouched.
	if uRun.State() != UnitRunning || pilotM.RunningUnits() != 1 {
		t.Fatalf("uRun %v / pilotM holds %d units after correction, want Running / 1",
			uRun.State(), pilotM.RunningUnits())
	}
	if uPend.State() != UnitPending {
		t.Fatalf("uPend is %v after correction, want Pending (requeued)", uPend.State())
	}
	mgr.mu.Lock()
	obs.PendCharges = mgr.planner.Charges(uPend.id)
	mgr.mu.Unlock()
	mu.Lock()
	obs.PendEvents = append([]time.Duration(nil), pendEvents...)
	mu.Unlock()
	return obs
}

func TestReconcilerCorrectsInjectedDriftDeterministically(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runReconcileDriftWorkload(t)

	// All three corrections land at the second 30s scan after the t=10s
	// injection (anti-flap: sighted at 30s, corrected at 60s), observed by
	// the first poll afterwards.
	fixedAt := 60*time.Second + 500*time.Millisecond
	if base.OrphanFixedAt != fixedAt {
		t.Errorf("orphan corrected at %v, want %v", base.OrphanFixedAt, fixedAt)
	}
	if base.MissingFixedAt != fixedAt {
		t.Errorf("missing-on-agent corrected at %v, want %v", base.MissingFixedAt, fixedAt)
	}
	wantPend := []time.Duration{0, 60 * time.Second}
	if !reflect.DeepEqual(base.PendEvents, wantPend) {
		t.Errorf("state-mismatch requeue instants = %v, want %v", base.PendEvents, wantPend)
	}
	if base.PendCharges != 1 {
		t.Errorf("state-mismatch charged %d retries, want 1", base.PendCharges)
	}

	for i := 2; i <= 5; i++ {
		if got := runReconcileDriftWorkload(t); !reflect.DeepEqual(base, got) {
			t.Fatalf("run %d diverged from run 1:\n base %+v\n got  %+v", i, base, got)
		}
	}
}
