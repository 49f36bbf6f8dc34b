package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gopilot/internal/chaos"
	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

// spineVariant selects what is added on top of the fixed base workload.
type spineVariant int

const (
	baseOnly spineVariant = iota
	// extraPilot submits one additional pilot (to the cloud backend) after
	// the base pilots.
	extraPilot
	// extraBackend registers a whole additional HPC machine ("frontera")
	// and submits a pilot to it after the base pilots.
	extraBackend
	// extraRetryUnit adds a short-walltime local pilot and, after the base
	// units, an oversized unit that loses that pilot mid-execution and
	// retries — exercising the planner's "retry"/<ordinal> jitter subtree.
	extraRetryUnit
	// extraChaosWiring attaches the full chaos apparatus at zero fault
	// rate: a plan compiled from the root's "chaos"/... subtree (its draws
	// must land there and nowhere else), a running engine with an empty
	// schedule, and the vclock schedule recorder.
	extraChaosWiring
)

// spineObservation records every pre-existing component's observable draw
// sequence from one run of the fixed workload.
type spineObservation struct {
	HPCAQueueWaits metrics.Summary
	HTCMatchDelays metrics.Summary
	PilotDraws     map[string]uint64 // first draw of each base pilot's stream
	UnitDraws      map[string]uint64 // first draw of each unit's stream
}

// runSpineWorkload drives the same base workload — two stampede pilots,
// one osg pilot, six units — on a seed-42 testbed, optionally with one
// extra component added AFTER the base ones, and returns what the base
// components drew.
func runSpineWorkload(t *testing.T, v spineVariant) spineObservation {
	t.Helper()
	tb := NewTestbed(TestbedConfig{Seed: 42})
	defer tb.Close()
	mgr := tb.NewManager(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	basePilots := make([]*core.Pilot, 0, 3)
	for _, d := range []core.PilotDescription{
		{Name: "pA", Resource: "hpc://stampede", Cores: 32, Walltime: 4 * time.Hour},
		{Name: "pB", Resource: "hpc://stampede", Cores: 16, Walltime: 4 * time.Hour},
		{Name: "pH", Resource: "htc://osg", Cores: 2, Walltime: 4 * time.Hour},
	} {
		p, err := mgr.SubmitPilot(d)
		if err != nil {
			t.Fatal(err)
		}
		basePilots = append(basePilots, p)
	}

	// The added component comes after the pre-existing ones, mirroring an
	// experimenter extending a testbed.
	var doomed *core.Pilot
	switch v {
	case extraChaosWiring:
		tb.Clock.StartRecorder(vclock.RecorderConfig{})
		// Compiling consumes the plan's draws; injecting none (Truncate(0))
		// keeps the run fault-free while the engine still participates.
		plan := chaos.Compile(tb.Root, DefaultChaosFaults())
		engine := chaos.NewEngine(plan.Truncate(0), chaos.Targets{
			Clock: tb.Clock,
			Backends: []chaos.Backend{
				{Name: "stampede", Faults: tb.HPCA.Faults(), OnRecover: mgr.Kick},
				{Name: "osg", Faults: tb.HTC.Faults(), OnRecover: mgr.Kick},
			},
			Storm: tb.HTC.Storm,
		})
		tb.Go(func() { engine.Run(ctx) })
	case extraRetryUnit:
		// A 64-core local pilot that dies 20s in: the oversized unit added
		// below fits nowhere else, rides it, and is requeued with a seeded
		// backoff when the walltime hits.
		p, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "doomed", Resource: "local://localhost", Cores: 64, Walltime: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		doomed = p
	case extraPilot:
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "extra", Resource: "cloud://ec2", Cores: 16, Walltime: 4 * time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	case extraBackend:
		frontera := hpc.New(hpc.Config{
			Name: "frontera", Nodes: 16, CoresPerNode: 16,
			QueueWait: dist.LogNormalFrom(tb.Root.Named("infra/hpc/frontera", "queue-wait"), 30, 0.5),
			Backfill:  true,
			Clock:     tb.Clock,
			Stream:    tb.Root.Named("infra/hpc/frontera"),
		})
		tb.Registry.Register(frontera) // closed with the testbed
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "extra", Resource: "hpc://frontera", Cores: 16, Walltime: 4 * time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	}

	obs := spineObservation{
		PilotDraws: make(map[string]uint64),
		UnitDraws:  make(map[string]uint64),
	}
	draws := make(chan [2]interface{}, 16)
	units := make([]*core.ComputeUnit, 0, 6)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("u%d", i)
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: name,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				draws <- [2]interface{}{name, tc.Stream.Uint64()}
				if !tc.Sleep(ctx, time.Second) {
					return ctx.Err()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	// The retrying unit comes after every base unit, so the base units'
	// ordinals — and with them their streams — are untouched.
	var retrier *core.ComputeUnit
	if v == extraRetryUnit {
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: "retrier", Cores: 64, MaxRetries: 2,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !tc.Sleep(ctx, time.Hour) {
					return ctx.Err()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		retrier = u
	}
	for _, u := range units {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			t.Fatalf("unit %s: %v (%v)", u.ID(), s, err)
		}
	}
	if v == extraRetryUnit {
		// Make sure the retry actually fired — one budget charge, one
		// jitter draw — before sampling the base components.
		if s, err := doomed.Wait(ctx); !s.Terminal() {
			t.Fatalf("doomed pilot: %v (%v)", s, err)
		}
		for retrier.State() != core.UnitPending {
			if !tb.Clock.Sleep(ctx, 100*time.Millisecond) {
				t.Fatalf("retrier never requeued: %v", retrier.State())
			}
		}
		if retrier.Attempts() < 1 {
			t.Fatalf("retrier never executed before the pilot died")
		}
	}
	// Queue-wait/match-delay observations are recorded when jobs start, so
	// make sure every base pilot actually came up before sampling stats.
	for _, p := range basePilots {
		if err := p.WaitRunning(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(draws)
	for d := range draws {
		obs.UnitDraws[d[0].(string)] = d[1].(uint64)
	}
	for _, p := range basePilots {
		obs.PilotDraws[p.ID()] = p.Stream().Uint64()
	}
	obs.HPCAQueueWaits = tb.HPCA.QueueWaitStats()
	obs.HTCMatchDelays = tb.HTC.MatchDelayStats()
	return obs
}

// TestComponentInsensitivity is the seeding spine's headline contract:
// adding a pilot — or registering an entire additional backend and
// submitting a pilot to it, or appending a unit whose retries consume
// planner backoff-jitter draws — to a same-seed testbed leaves every
// pre-existing component's draw sequence bit-identical. Under the old
// cfg.Seed+N scheme an added backend renumbered every later component's
// seed, and under the shared eviction rng an added job shifted every
// other job's draws; a shared retry rng would likewise let one unit's
// failures shift every other unit's timeline.
func TestComponentInsensitivity(t *testing.T) {
	base := runSpineWorkload(t, baseOnly)
	if base.HPCAQueueWaits.N < 2 {
		t.Fatalf("workload exercised only %d stampede jobs; want >= 2", base.HPCAQueueWaits.N)
	}
	if base.HTCMatchDelays.N < 2 {
		t.Fatalf("workload exercised only %d osg glideins; want >= 2", base.HTCMatchDelays.N)
	}
	for name, v := range map[string]spineObservation{
		"extra-pilot":        runSpineWorkload(t, extraPilot),
		"extra-backend":      runSpineWorkload(t, extraBackend),
		"extra-retry-unit":   runSpineWorkload(t, extraRetryUnit),
		"extra-chaos-wiring": runSpineWorkload(t, extraChaosWiring),
	} {
		if !reflect.DeepEqual(base.HPCAQueueWaits, v.HPCAQueueWaits) {
			t.Errorf("%s: stampede queue-wait draws shifted:\n base %+v\n got  %+v",
				name, base.HPCAQueueWaits, v.HPCAQueueWaits)
		}
		if !reflect.DeepEqual(base.HTCMatchDelays, v.HTCMatchDelays) {
			t.Errorf("%s: osg match-delay draws shifted:\n base %+v\n got  %+v",
				name, base.HTCMatchDelays, v.HTCMatchDelays)
		}
		if !reflect.DeepEqual(base.PilotDraws, v.PilotDraws) {
			t.Errorf("%s: pre-existing pilots' streams shifted:\n base %v\n got  %v",
				name, base.PilotDraws, v.PilotDraws)
		}
		if !reflect.DeepEqual(base.UnitDraws, v.UnitDraws) {
			t.Errorf("%s: pre-existing units' streams shifted:\n base %v\n got  %v",
				name, base.UnitDraws, v.UnitDraws)
		}
	}
}

// TestUnitStreamPlacementIndependent pins a subtler half of the contract:
// a unit's stream is fixed by its submission ordinal, not by which pilot
// executes it — so even when extra capacity reroutes units, their draws
// are unchanged (asserted inside TestComponentInsensitivity via
// UnitDraws) and two same-seed managers agree without any pilots in
// common.
func TestUnitStreamPlacementIndependent(t *testing.T) {
	draw := func(resource string) uint64 {
		tb := NewTestbed(TestbedConfig{Seed: 7})
		defer tb.Close()
		mgr := tb.NewManager(nil)
		if _, err := mgr.SubmitPilot(core.PilotDescription{
			Name: "p", Resource: resource, Cores: 4, Walltime: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out := make(chan uint64, 1)
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: "probe",
			Run: func(_ context.Context, tc core.TaskContext) error {
				out <- tc.Stream.Uint64()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if s, err := u.Wait(ctx); s != core.UnitDone {
			t.Fatalf("unit: %v (%v)", s, err)
		}
		return <-out
	}
	onLocal := draw("local://localhost")
	onYarn := draw("yarn://yarn")
	if onLocal != onYarn {
		t.Fatalf("unit draw depends on placement: local %d vs yarn %d", onLocal, onYarn)
	}
}
