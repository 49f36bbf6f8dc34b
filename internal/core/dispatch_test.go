package core_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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

// TestBacklogDrainNeverStalls drains a 400-unit mixed-core backlog onto
// four local pilots and requires that the world never stalled: a stall
// starts one watcher goroutine per cancel context the sweep polls, so
// pilot-backlog's hot path pays that cost only if it stalls, and it must
// not. The count is the executor's own, read before Close tears the
// manager down.
func TestBacklogDrainNeverStalls(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 32, clock))
	root := dist.NewStream(1)
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: root.Named("manager")})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://box", Cores: 8}); err != nil {
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
				if !tc.Sleep(ctx, time.Duration(10+tc.Stream.Named("runtime").Intn(50))*time.Second) {
					return ctx.Err()
				}
				return nil
			},
		}
	}
	if _, err := mgr.SubmitUnits(descs); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n := clock.Stalls(); n != 0 {
		t.Fatalf("the backlog drain stalled the world %d times", n)
	}
}

// backlogOutcome is everything a backlog run decides: the schedule
// recorder's decision count and hash, and each unit's ID, end instant and
// attempt count, in submission order.
type backlogOutcome struct {
	Decisions, Hash uint64
	IDs             []string
	Ends            []time.Duration
	Attempts        []int
}

// runMixedBacklog drains 300 mixed-core units from one seed onto three
// 8-core pilots, the third of which hits its walltime mid-run, with the
// schedule recorder on. The units go in through one SubmitUnits call
// (batch) or a loop of SubmitUnit; the pilots are still queued at their
// backend when they do, or already running (pilotsUp).
func runMixedBacklog(t *testing.T, batch, pilotsUp bool) backlogOutcome {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	clock.StartRecorder(vclock.RecorderConfig{})
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 64, clock))
	root := dist.NewStream(30)
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: root.Named("manager")})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for i := 0; i < 3; i++ {
		d := core.PilotDescription{Resource: "local://box", Cores: 8, Walltime: 2 * time.Hour}
		if i == 2 {
			d.Walltime = 3 * time.Minute
		}
		p, err := mgr.SubmitPilot(d)
		if err != nil {
			t.Fatal(err)
		}
		if pilotsUp {
			if err := p.WaitRunning(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pilotsUp {
		clock.Sleep(ctx, time.Second) // the dispatcher takes its passes and parks
	}
	shapes := root.Named("cores")
	descs := make([]core.UnitDescription, 300)
	for i := range descs {
		descs[i] = core.UnitDescription{
			Cores:      1 + shapes.SplitLabel(uint64(i)).Intn(4),
			MaxRetries: 3,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !tc.Sleep(ctx, time.Duration(5+tc.Stream.Named("runtime").Intn(30))*time.Second) {
					return ctx.Err()
				}
				return nil
			},
		}
	}
	var units []*core.ComputeUnit
	if batch {
		var err error
		if units, err = mgr.SubmitUnits(descs); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, d := range descs {
			u, err := mgr.SubmitUnit(d)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, u)
		}
	}
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	st := clock.RecorderState()
	out := backlogOutcome{Decisions: st.Decisions, Hash: st.Hash}
	for _, u := range units {
		if u.State() != core.UnitDone {
			t.Fatalf("unit %s ended %v after %d attempts: %v", u.ID(), u.State(), u.Attempts(), u.Err())
		}
		out.IDs = append(out.IDs, u.ID())
		out.Ends = append(out.Ends, u.EndTime().Sub(vclock.Epoch))
		out.Attempts = append(out.Attempts, u.Attempts())
	}
	if slices.Max(out.Attempts) < 2 {
		t.Fatal("no unit was retried: the walltime kill missed the backlog")
	}
	return out
}

// TestSubmitUnitsMatchesSubmitUnit: admitting a backlog in one SubmitUnits
// call — one critical section, one wake of the dispatcher — decides exactly
// what a loop of SubmitUnit does, whether the dispatcher has yet to take
// its first pass (pilots still queued) or is parked with running pilots,
// where the loop's second wake latched one more pass that binds nothing.
// A nil Run in mid-batch admits the units before it, returns the error and
// takes no ordinal.
func TestSubmitUnitsMatchesSubmitUnit(t *testing.T) {
	for _, pilotsUp := range []bool{false, true} {
		batch, loop := runMixedBacklog(t, true, pilotsUp), runMixedBacklog(t, false, pilotsUp)
		if !reflect.DeepEqual(batch, loop) {
			t.Fatalf("pilots running %v: one SubmitUnits decided %d decisions, hash %#x; a SubmitUnit loop %d, %#x (or the units differ)",
				pilotsUp, batch.Decisions, batch.Hash, loop.Decisions, loop.Hash)
		}
		t.Logf("pilots running %v: %d decisions, hash %#x, both ways", pilotsUp, batch.Decisions, batch.Hash)
	}

	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", 8, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Stream: dist.NewStream(30)})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://box", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	ok := func(ctx context.Context, tc core.TaskContext) error { tc.Sleep(ctx, time.Second); return nil }
	descs := []core.UnitDescription{{Run: ok}, {Run: ok}, {Run: ok}, {}, {Run: ok}}
	units, err := mgr.SubmitUnits(descs)
	if err == nil || len(units) != 3 {
		t.Fatalf("a nil Run at index 3 admitted %d units, error %v; want 3 and an error", len(units), err)
	}
	if err := mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if want := fmt.Sprint("unit-", i+1); u.ID() != want || u.State() != core.UnitDone {
			t.Fatalf("unit %d is %s, %v; want %s, Done", i, u.ID(), u.State(), want)
		}
	}
	next, err := mgr.SubmitUnit(descs[4])
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() != "unit-4" || len(mgr.Units()) != 4 {
		t.Fatalf("the submission after the rejected batch is %s, %d units in all; want unit-4, 4", next.ID(), len(mgr.Units()))
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
