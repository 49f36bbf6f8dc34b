package core

import (
	"context"
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
// allocs/op ÷ 4000 is its allocations per unit.
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

// BenchmarkReconcileScan prices one ReconcileOnce over pilot-backlog's
// steady state: 20 pilots of 32 cores, every core taken by a 1-core unit
// that outlives the benchmark (640 bound) and 3360 more units queued behind
// them (4000 live), nothing drifted. The scan's cost should follow the 640.
func BenchmarkReconcileScan(b *testing.B) {
	const pilots, cores, units = 20, 32, 4000
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("box", pilots*cores, clock))
	mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(1), ReconcileEvery: -1})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < pilots; i++ {
		p, err := mgr.SubmitPilot(PilotDescription{Resource: "local://box", Cores: cores})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.WaitRunning(ctx); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < units; i++ {
		if _, err := mgr.SubmitUnit(quickUnit("", 24*time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
	clock.Sleep(ctx, time.Second) // the dispatcher binds what fits
	if depth := mgr.QueueDepth(); depth != units-pilots*cores {
		b.Fatalf("%d units queued, want %d", depth, units-pilots*cores)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drifts := mgr.ReconcileOnce(); len(drifts) != 0 {
			b.Fatalf("a clean world was corrected: %v", drifts)
		}
	}
}
