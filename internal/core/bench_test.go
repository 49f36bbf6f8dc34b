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

// BenchmarkSubmitUnits prices pilot-backlog's admission: 4000 mixed-core
// units in one SubmitUnits call onto a fresh manager whose 20 pilots are
// still queued at their backend. An op is the whole batch, and only the
// SubmitUnits call is timed: ns/unit divides its time by the units, and
// allocs/op ÷ 4000 is its allocations per unit. A collection runs before
// each timed call, as cmd/bench does before a repetition, so no op is billed
// for the garbage of the one before it.
func BenchmarkSubmitUnits(b *testing.B) {
	const pilots, cores, units = 20, 32, 4000
	descs := make([]UnitDescription, units)
	for i := range descs {
		descs[i] = quickUnit("", time.Hour)
		descs[i].Cores = 1 + i%4
	}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		reg := saga.NewRegistry()
		reg.Register(saga.NewLocalService("box", pilots*cores, clock))
		mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(1)})
		for j := 0; j < pilots; j++ {
			if _, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: cores}); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		b.StartTimer()
		_, err := mgr.SubmitUnits(descs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		mgr.Close()
		clock.Leave()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
}

// BenchmarkBacklogDrain is pilot-backlog's shape inside the package: 4000
// mixed-core units, each sleeping 10–59 modeled seconds drawn from its own
// stream, submitted at once onto 20 pilots of 32 cores and drained to
// WaitAll on one Virtual clock. An op is one drain, its set-up untimed;
// ns/unit divides the time by the units. With -cpuprofile it gives the
// control plane's profile at deep queue depth without the bench harness.
func BenchmarkBacklogDrain(b *testing.B) {
	const pilots, cores, units = 20, 32, 4000
	shapes := dist.NewStream(1).Named("cores")
	descs := make([]UnitDescription, units)
	for i := range descs {
		descs[i] = UnitDescription{
			Cores:      1 + shapes.SplitLabel(uint64(i)).Intn(4),
			MaxRetries: 3,
			Run: func(ctx context.Context, tc TaskContext) error {
				if !tc.Sleep(ctx, time.Duration(10+tc.Stream.Named("runtime").Intn(50))*time.Second) {
					return ctx.Err()
				}
				return nil
			},
		}
	}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		reg := saga.NewRegistry()
		reg.Register(saga.NewLocalService("box", pilots*cores, clock))
		mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(1)})
		for j := 0; j < pilots; j++ {
			if _, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: cores}); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		b.StartTimer()
		if _, err := mgr.SubmitUnits(descs); err != nil {
			b.Fatal(err)
		}
		if err := mgr.WaitAll(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		mgr.Close()
		clock.Leave()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
}

// boundBacklog builds pilot-backlog's steady state for a reconcile scan: 20
// running pilots of 32 cores, every core taken by a 1-core unit that
// outlives the caller (640 bound) and 3360 more units queued behind them
// (4000 live), nothing drifted, the reconcile loop off. Cleanup closes it.
func boundBacklog(tb testing.TB) *Manager {
	const pilots, cores, units = 20, 32, 4000
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	tb.Cleanup(clock.Leave)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", pilots*cores, clock))
	mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(1), ReconcileEvery: -1})
	tb.Cleanup(func() { mgr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < pilots; i++ {
		p, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: cores})
		if err != nil {
			tb.Fatal(err)
		}
		if err := p.WaitRunning(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < units; i++ {
		if _, err := mgr.SubmitUnit(quickUnit("", 24*time.Hour)); err != nil {
			tb.Fatal(err)
		}
	}
	clock.Sleep(ctx, time.Second) // the dispatcher binds what fits
	if depth := mgr.QueueDepth(); depth != units-pilots*cores {
		tb.Fatalf("%d units queued, want %d", depth, units-pilots*cores)
	}
	return mgr
}

// BenchmarkReconcileScan prices one ReconcileOnce over boundBacklog's world.
// The scan's cost should follow the 640 bound units, not the 4000 live.
func BenchmarkReconcileScan(b *testing.B) {
	mgr := boundBacklog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drifts := mgr.ReconcileOnce(); len(drifts) != 0 {
			b.Fatalf("a clean world was corrected: %v", drifts)
		}
	}
}

// TestReconcileScanAllocatesNothing: a scan of a clean world reuses its
// snapshots and the reconciler's index and sighting sets, so after the
// first it allocates nothing.
func TestReconcileScanAllocatesNothing(t *testing.T) {
	mgr := boundBacklog(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if drifts := mgr.ReconcileOnce(); len(drifts) != 0 {
			t.Fatalf("a clean world was corrected: %v", drifts)
		}
	}); allocs != 0 {
		t.Fatalf("a reconcile scan allocates %.1f times, want 0", allocs)
	}
}
