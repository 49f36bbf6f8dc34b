package core_test

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// TestBacklogSchedulePinned runs a 400-unit mixed-core backlog onto four
// 8-core pilots under the virtual clock with the schedule recorder on, and
// pins the recorder's decision count and hash chain to the values recorded
// under the full-rescan plan.Plan that the indexed queue replaced: the
// index may change what a tick costs, never what it decides. The fourth
// pilot hits its walltime mid-run, so the schedule also covers execution
// failures, backoff-gated units parked in mid-queue and their re-dispatch.
func TestBacklogSchedulePinned(t *testing.T) {
	const wantDecisions, wantHash = 2071, 0x5cc07e6f1aa4c8da
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	clock.StartRecorder(vclock.RecorderConfig{})
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 64, clock))
	root := dist.NewStream(12)
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: root.Named("manager")})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for i := 0; i < 4; i++ {
		d := core.PilotDescription{Resource: "local://box", Cores: 8, Walltime: 2 * time.Hour}
		if i == 3 {
			d.Walltime = 2 * time.Minute
		}
		if _, err := mgr.SubmitPilot(d); err != nil {
			t.Fatal(err)
		}
	}
	shapes := root.Named("cores")
	descs := make([]core.UnitDescription, 400)
	for i := range descs {
		descs[i] = core.UnitDescription{
			Cores:      1 + shapes.SplitLabel(uint64(i)).Intn(4),
			MaxRetries: 3,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				d := time.Duration(5+tc.Stream.Named("runtime").Intn(30)) * time.Second
				if !tc.Sleep(ctx, d) {
					return ctx.Err()
				}
				return nil
			},
		}
	}
	units, err := mgr.SubmitUnits(descs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, u := range units {
		if u.State() != core.UnitDone {
			t.Fatalf("unit %s ended %v after %d attempts: %v", u.ID(), u.State(), u.Attempts(), u.Err())
		}
		if u.Attempts() > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no unit was retried: the walltime kill missed the backlog")
	}
	if st := clock.RecorderState(); st.Decisions != wantDecisions || st.Hash != wantHash {
		t.Fatalf("schedule moved: %d decisions, hash %#x; pinned %d, %#x",
			st.Decisions, st.Hash, uint64(wantDecisions), uint64(wantHash))
	}
}

// TestOutageLeavesAndRejoinsTheSnapshot pins what a tick's capacity
// snapshot holds when a backend's outage window opens and closes between
// two ticks: the pilot on it is out of the very next tick — the unit goes
// to the later-submitted pilot on the healthy backend, and one that fits
// only the unreachable pilot stays queued — and it is back, first in
// submission order again, in the tick that Kick asks for. Recovery itself
// wakes nobody, which is why the chaos engine's OnRecover is Kick.
func TestOutageLeavesAndRejoinsTheSnapshot(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	flaky, steady := saga.NewLocalService("flaky", 64, clock), saga.NewLocalService("steady", 64, clock)
	reg := saga.NewRegistry()
	reg.Register(flaky)
	reg.Register(steady)
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: dist.NewStream(3)})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	big, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://flaky", Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	small, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://steady", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*core.Pilot{big, small} {
		if err := p.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(cores int) *core.ComputeUnit {
		t.Helper()
		u, err := mgr.SubmitUnit(core.UnitDescription{Cores: cores, Run: func(ctx context.Context, tc core.TaskContext) error {
			tc.Sleep(ctx, time.Second)
			return ctx.Err()
		}})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	ranOn := func(u *core.ComputeUnit, want *core.Pilot) {
		t.Helper()
		if s, err := u.Wait(ctx); s != core.UnitDone {
			t.Fatalf("unit %s ended %v: %v", u.ID(), s, err)
		}
		if u.Pilot() != want {
			t.Fatalf("unit %s ran on %s, want %s", u.ID(), u.Pilot().ID(), want.ID())
		}
	}

	ranOn(submit(1), big) // healthy: first fit is the first pilot submitted

	flaky.Faults().SetDown(true)
	one, four := submit(1), submit(4)
	ranOn(one, small)
	if s := four.State(); s != core.UnitPending {
		t.Fatalf("the 4-core unit is %v while the only pilot it fits is unreachable, want Pending", s)
	}

	flaky.Faults().SetDown(false)
	clock.Sleep(ctx, 10*time.Second)
	if s := four.State(); s != core.UnitPending {
		t.Fatalf("the 4-core unit is %v after a recovery nobody announced, want Pending", s)
	}
	mgr.Kick()
	ranOn(four, big)
	ranOn(submit(1), big)
}
