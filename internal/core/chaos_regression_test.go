package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Close while a reconcile scan is parked on its (long) period must exit
// the reconcile loop promptly: the loop's sleep runs on the manager
// context, so cancellation wakes it at the current instant instead of
// letting the virtual clock jump to the end of the period (or leaking
// the goroutine past Close on real clocks).
func TestCloseInterruptsParkedReconcileScan(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 8, clock))

	before := runtime.NumGoroutine()
	mgr := NewManager(Config{
		Registry: reg, Clock: clock, Stream: dist.NewStream(3),
		ReconcileEvery: 6 * time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pilot, err := mgr.SubmitPilot(PilotDescription{Name: "p", Resource: "local://box", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := pilot.WaitRunning(ctx); err != nil {
		t.Fatal(err)
	}
	// An active unit keeps the reconcile loop in its busy branch, parked
	// mid-period on the 6h sleep. The unit itself ends at t=40s, so the
	// only thing that could hold Close past ~40s is that parked scan.
	if _, err := mgr.SubmitUnit(UnitDescription{
		Name: "short", Cores: 1,
		Run: func(ctx context.Context, tc TaskContext) error {
			tc.Sleep(ctx, 40*time.Second)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	sleepUntil(ctx, clock, 30*time.Second)

	mgr.Close()
	if at := clock.Since(vclock.Epoch); at > 2*time.Minute {
		t.Fatalf("Close returned at virtual %v: the parked reconcile scan ran out its 6h period", at)
	}
	// The loop goroutine must be gone, not merely unblocked: poll briefly
	// (wall time) for the count to settle back to the pre-manager level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before the manager existed: reconcile loop leaked", got, before)
	}
}

// Anti-flap under chaos timing: a fault-shaped drift injected *between*
// two reconcile scans must still converge on the standard
// sight-then-confirm cadence — sighted by the first scan after
// injection, corrected exactly at the second — and a transient drift
// that clears before its first sighting must never trigger a correction.
func TestReconcileAntiFlapWithMidScanFault(t *testing.T) {
	run := func(transient bool) (fixedAt time.Duration) {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		defer clock.Leave()
		reg := saga.NewRegistry()
		reg.Register(saga.NewLocalService("box", 8, clock))
		mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(4)})
		defer mgr.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		pilot, err := mgr.SubmitPilot(PilotDescription{Name: "p", Resource: "local://box", Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := pilot.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
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
		// Keep the reconcile loop busy so scans tick at 30s, 60s, 90s.
		if _, err := mgr.SubmitUnit(UnitDescription{
			Name: "busy", Cores: 1,
			Run: func(ctx context.Context, tc TaskContext) error {
				tc.Sleep(ctx, time.Hour)
				return ctx.Err()
			},
		}); err != nil {
			t.Fatal(err)
		}

		// The fault lands at t=35s — after the 30s scan has already run,
		// the shape a chaos crash leaves behind: the agent holds a slot
		// for a unit the control plane knows is terminal (orphan drift).
		sleepUntil(ctx, clock, 35*time.Second)
		mgr.mu.Lock()
		pilot.running[uDone] = struct{}{}
		pilot.freeCores.Add(-int64(uDone.desc.Cores))
		mgr.mu.Unlock()
		if transient {
			// The fault clears on its own before the 60s scan can sight it.
			sleepUntil(ctx, clock, 50*time.Second)
			mgr.mu.Lock()
			delete(pilot.running, uDone)
			pilot.freeCores.Add(int64(uDone.desc.Cores))
			mgr.mu.Unlock()
		}

		for off := 35*time.Second + 500*time.Millisecond; off <= 100*time.Second; off += time.Second {
			sleepUntil(ctx, clock, off)
			if !transient && fixedAt == 0 && pilot.FreeCores() == 3 {
				fixedAt = off
			}
		}
		if transient && pilot.FreeCores() != 3 {
			t.Fatalf("transient drift left %d free cores, want 3", pilot.FreeCores())
		}
		return fixedAt
	}

	// Persistent drift: sighted at 60s, corrected at 90s (the second scan
	// after the fault), observed by the next poll.
	if fixedAt := run(false); fixedAt != 90*time.Second+500*time.Millisecond {
		t.Errorf("mid-scan fault corrected at %v, want 90.5s (second scan after injection)", fixedAt)
	}
	// Transient drift: cleared before its first sighting — the reconciler
	// must never have acted (checked inside run; a correction on a
	// self-healed fault would double-return the cores to 4+1).
	run(true)
}
