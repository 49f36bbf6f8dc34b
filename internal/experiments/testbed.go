// Package experiments regenerates every table- and figure-shaped result in
// the paper's evaluation, each listed once in Exhibits (DESIGN.md index).
// Each experiment builds a fresh simulated testbed — HPC machines with
// batch queues, an HTC pool, a cloud region, a YARN cluster, Pilot-Data
// sites — runs the workload through the pilot stack in virtual time, and
// returns the same rows the paper reports. The cmd/experiments binary and
// the root bench_test.go both drive this package.
package experiments

import (
	"time"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dist"
	"gopilot/internal/infra/cloud"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/infra/htc"
	"gopilot/internal/infra/yarn"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// ClockMode is inert: every testbed runs on vclock.Virtual. The type and
// its one value survive only because the frozen cmd/bench writes
// `Mode: experiments.ClockVirtual`; delete with ROADMAP item 1.
type ClockMode int

// ClockVirtual is the one legal ClockMode (ignored; see ClockMode).
const ClockVirtual ClockMode = 1

// Testbed is the simulated multi-infrastructure environment every
// experiment runs on: two HPC machines (different queue pressure), an HTC
// pool, a cloud region, a YARN cluster and a Pilot-Data service
// federating their sites.
type Testbed struct {
	Clock    vclock.Clock
	Virtual  *vclock.Virtual // == Clock; the name frozen cmd/bench uses (delete with ROADMAP item 1)
	Registry *saga.Registry
	HPCA     *hpc.Cluster
	HPCB     *hpc.Cluster
	HTC      *htc.Pool
	Cloud    *cloud.Provider
	Yarn     *yarn.Cluster
	Data     *data.Service

	// Root is the experiment's seeding-spine root, derived once from
	// TestbedConfig.Seed. Every component owns a child named by its
	// *identity* — "infra/hpc/stampede", "manager"/<ordinal>,
	// "app/rexchange" — never by construction order, so adding a backend,
	// pilot or workload to a same-seed testbed leaves every existing
	// component's draw sequence bit-identical (the component-insensitivity
	// contract; see DESIGN.md "Seeding spine"). Extensions must derive
	// their streams from here: tb.Root.Named("infra/hpc/<newname>").
	Root *dist.Stream

	managers []*core.Manager
}

// TestbedConfig tunes the environment.
type TestbedConfig struct {
	// Mode is ignored; delete with ROADMAP item 1 (see ClockMode).
	Mode ClockMode
	// QueueWaitMean is machine A's mean exogenous queue wait in seconds
	// (default 60). Machine B always waits 4× longer (a busier machine).
	QueueWaitMean float64
	// QueueWaitCV is the lognormal coefficient of variation (default 0.5).
	QueueWaitCV float64
	// Seed is the experiment's single root seed. It is the only integer
	// seed in the whole stack: NewTestbed turns it into one root stream
	// and every component below receives a named sub-stream (see Root).
	Seed int64
}

// NewTestbed builds the environment on a fresh virtual clock and adopts
// the calling goroutine as a participant of the executor — it must be the
// (single) driver of the testbed until Close, and must not touch a
// still-open outer testbed in between (nesting is fine; interleaving is
// not).
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.QueueWaitMean <= 0 {
		cfg.QueueWaitMean = 60
	}
	if cfg.QueueWaitCV <= 0 {
		cfg.QueueWaitCV = 0.5
	}
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	root := dist.NewStream(cfg.Seed)
	tb := &Testbed{Clock: clock, Virtual: clock, Registry: saga.NewRegistry(), Root: root}

	// Each backend's randomness is a child of the root named by the
	// component's identity — never by position in this function — so
	// registering an additional backend (or reordering this block) leaves
	// every other backend's sample sequence bit-identical.
	hpcaStream := root.Named("infra/hpc/stampede")
	tb.HPCA = hpc.New(hpc.Config{
		Name: "stampede", Nodes: 64, CoresPerNode: 16,
		QueueWait:        dist.LogNormalFrom(hpcaStream.Named("queue-wait"), cfg.QueueWaitMean, cfg.QueueWaitCV),
		DispatchOverhead: 2 * time.Second,
		Backfill:         true,
		Clock:            clock, Stream: hpcaStream,
	})
	hpcbStream := root.Named("infra/hpc/comet")
	tb.HPCB = hpc.New(hpc.Config{
		Name: "comet", Nodes: 32, CoresPerNode: 16,
		QueueWait:        dist.LogNormalFrom(hpcbStream.Named("queue-wait"), cfg.QueueWaitMean*4, cfg.QueueWaitCV),
		DispatchOverhead: 2 * time.Second,
		Backfill:         true,
		Clock:            clock, Stream: hpcbStream,
	})
	htcStream := root.Named("infra/htc/osg")
	tb.HTC = htc.New(htc.Config{
		Name: "osg", Slots: 128,
		MatchDelay: dist.LogNormalFrom(htcStream.Named("match-delay"), 15, 0.5),
		Clock:      clock, Stream: htcStream,
	})
	cloudStream := root.Named("infra/cloud/ec2")
	tb.Cloud = cloud.New(cloud.Config{
		Name: "ec2",
		Types: []cloud.VMType{
			{Name: "c5.2xlarge", Cores: 8, PricePerHour: 0.34},
			{Name: "c5.4xlarge", Cores: 16, PricePerHour: 0.68},
		},
		BootDelay: dist.LogNormalFrom(cloudStream.Named("boot-delay"), 45, 0.3),
		Clock:     clock, Stream: cloudStream,
	})
	yarnStream := root.Named("infra/yarn/yarn")
	tb.Yarn = yarn.New(yarn.Config{
		Name: "yarn", TotalCores: 64,
		AllocDelay: dist.LogNormalFrom(yarnStream.Named("alloc-delay"), 1, 0.3),
		Clock:      clock, Stream: yarnStream,
	})

	// Each backend is its own saga.Service. Registration order is Close
	// order (Registry.CloseAll): the simulators first, then the local
	// service, whose Close waits out its jobs.
	tb.Registry.Register(tb.HPCA)
	tb.Registry.Register(tb.HPCB)
	tb.Registry.Register(tb.HTC)
	tb.Registry.Register(tb.Cloud)
	tb.Registry.Register(tb.Yarn)
	tb.Registry.Register(saga.NewLocalService("localhost", 64, clock))

	tb.Data = data.NewService(data.Config{
		Clock:          clock,
		LocalBandwidth: 500e6,
		DefaultLink:    data.Link{Bandwidth: 50e6, Latency: 100 * time.Millisecond},
	})
	return tb
}

// NewManager creates a pilot manager on the testbed (closed by Close).
// Managers are labeled by creation ordinal — "manager"/0, "manager"/1 — so
// creating an additional manager after existing ones never shifts their
// pilots' or units' streams.
func (tb *Testbed) NewManager(sched core.Scheduler) *core.Manager {
	m := core.NewManager(core.Config{
		Registry:  tb.Registry,
		Clock:     tb.Clock,
		Scheduler: sched,
		Data:      tb.Data,
		Stream:    tb.Root.Named("manager").SplitLabel(uint64(len(tb.managers))),
	})
	tb.managers = append(tb.managers, m)
	return m
}

// Close shuts every component down, then releases the driver goroutine
// from the executor.
func (tb *Testbed) Close() {
	for _, m := range tb.managers {
		m.Close()
	}
	tb.Registry.CloseAll()
	tb.Clock.Leave()
}

// Go spawns fn as a participant of the testbed's clock. Driver code that
// forks concurrent work against the testbed must use this instead of the
// go statement.
func (tb *Testbed) Go(fn func()) { tb.Clock.Go(fn) }
