// Package chaos is gopilot's deterministic fault-injection layer. A
// Plan — compiled from a Config and one labeled slot on the seeding
// spine — schedules faults at exact virtual instants: backend outages
// and recoveries, pilot crashes, evict storms, broker partition
// unavailability windows, delayed commits, consumer-group worker churn,
// federated shard losses, inter-shard link partitions, replication-lag
// windows, torn replication streams, and crashes of shards mid-catchup.
// An Engine
// replays the plan against live targets as an ordinary
// clock participant, so the same seed produces the same faults at the
// same modeled instants, interleaved identically with the workload.
//
// Everything here is seed-driven and clock-driven: the package draws
// randomness only from labeled dist.Streams ("chaos"/<kind>/<ordinal>)
// and waits only on the injected vclock.Clock — never math/rand, never
// the wall clock (tools/seed-audit.sh rule 7 enforces this). That is
// what makes a failing chaos seed a complete reproduction recipe: replay
// it, record the schedule (vclock.RecorderState), and bisect to the
// first divergent scheduling decision (see replay.go, cmd/chaosreplay).
package chaos

import (
	"fmt"
	"sort"
	"time"

	"gopilot/internal/dist"
)

// Kind enumerates the fault taxonomy.
type Kind int

// Fault kinds. Windowed kinds (BackendOutage, PartitionStall,
// CommitSkew, ShardLink, ReplicaLag, TornReplication) have a recovery
// instant; the rest are point faults.
const (
	// BackendOutage marks an infrastructure backend down for a window:
	// submissions fail with infra.ErrBackendDown and the dispatcher's
	// Candidates skip its pilots until recovery.
	BackendOutage Kind = iota
	// PilotCrash hard-kills a live pilot (Pilot.Kill): running units fail
	// mid-execution, queued units are stranded pre-start.
	PilotCrash
	// EvictStorm preempts every active HTC glidein at once (Pool.Storm).
	EvictStorm
	// PartitionStall blacks out one broker partition for a window:
	// consumers see no data past their offsets and park as on an empty log.
	PartitionStall
	// CommitSkew delays every broker commit acknowledgement by a drawn
	// lag for a window, stretching the staleness of commit marks.
	CommitSkew
	// WorkerChurn removes one consumer-group worker and immediately adds
	// a replacement — a back-to-back rebalance.
	WorkerChurn
	// ShardLoss permanently fails one live federated broker shard: every
	// partition it led fences, hands off to a surviving replica after the
	// modeled election delay, and re-replicates onto a recruit in virtual
	// time. Skipped when it would fail the last live shard.
	ShardLoss
	// ShardLink severs the replication link between two shards for a
	// window: partitions whose leader needs the link to reach an in-sync
	// follower cannot acknowledge publishes until the link heals.
	ShardLink
	// ReplicaLag slows the catch-up streams of one replication link for a
	// window (a drawn pacing multiplier), stretching follower lag and the
	// stale-suffix exposure of a handoff inside the window.
	ReplicaLag
	// TornReplication freezes replication into one follower slot of one
	// partition for a window: the stream stops at a clean batch boundary
	// (batches are never half-applied) and the follower falls behind
	// until the window closes.
	TornReplication
	// CrashMidCatchup permanently fails a shard that is currently
	// re-replicating as a recruit — the crash-mid-catchup case of the
	// recovery protocol. Skipped when no shard is syncing (or when it
	// would fail the last live shard).
	CrashMidCatchup

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BackendOutage:
		return "backend-outage"
	case PilotCrash:
		return "pilot-crash"
	case EvictStorm:
		return "evict-storm"
	case PartitionStall:
		return "partition-stall"
	case CommitSkew:
		return "commit-skew"
	case WorkerChurn:
		return "worker-churn"
	case ShardLoss:
		return "shard-loss"
	case ShardLink:
		return "shard-link"
	case ReplicaLag:
		return "replica-lag"
	case TornReplication:
		return "torn-replication"
	case CrashMidCatchup:
		return "crash-mid-catchup"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// windowed reports whether the kind has a recovery instant.
func (k Kind) windowed() bool {
	return k == BackendOutage || k == PartitionStall || k == CommitSkew || k == ShardLink ||
		k == ReplicaLag || k == TornReplication
}

// Fault is one scheduled fault. All instants are virtual offsets from
// the scenario start.
type Fault struct {
	// Kind classifies the fault.
	Kind Kind
	// Ordinal is the fault's per-kind index; together with Kind it names
	// the stream the fault was drawn from ("chaos"/<kind>/<ordinal>).
	Ordinal int
	// At is the injection instant.
	At time.Duration
	// Until is the recovery instant (windowed kinds; zero otherwise).
	Until time.Duration
	// Target selects the victim (backend index, live-pilot slot,
	// partition, group member slot — reduced modulo the population by the
	// engine at injection time).
	Target uint64
	// Delay is the drawn lag magnitude: the injected commit lag for
	// CommitSkew, and the severity knob the engine maps to a link pacing
	// multiplier for ReplicaLag.
	Delay time.Duration
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	s := fmt.Sprintf("%s/%d @%v target=%d", f.Kind, f.Ordinal, f.At, f.Target)
	if f.Kind.windowed() {
		s += fmt.Sprintf(" until=%v", f.Until)
	}
	if f.Kind == CommitSkew || f.Kind == ReplicaLag {
		s += fmt.Sprintf(" delay=%v", f.Delay)
	}
	return s
}

// Config bounds a plan: how many faults of each kind, over what horizon.
type Config struct {
	// Horizon is the injection window: every fault's At falls in
	// [0, Horizon). Default 10 minutes.
	Horizon time.Duration
	// Counts is the number of faults per kind; kinds absent from the map
	// inject nothing.
	Counts map[Kind]int
}

// The bounds every plan draws its lengths between: outage/stall/skew
// windows, and the commit lag of CommitSkew faults.
const (
	windowMin, windowMax = 15 * time.Second, 90 * time.Second
	skewMin, skewMax     = 500 * time.Millisecond, 3 * time.Second
)

// Plan is a compiled fault schedule: faults sorted by (At, Kind,
// Ordinal), ready for the Engine.
type Plan struct {
	// Horizon echoes the compiled Config's horizon.
	Horizon time.Duration
	// Faults is the full schedule, injection order.
	Faults []Fault
}

// Compile draws a fault schedule from the stream. Each fault of kind k
// with per-kind ordinal i draws from stream's "chaos"/<kind>/<i> child —
// its own independent slot, so changing one kind's count never shifts
// another kind's draws (the spine's component-insensitivity contract).
// Per fault the draw order is fixed at four draws — At, Target, window
// length, skew lag — with the unused draws discarded, so the schema can
// grow without re-dealing earlier faults.
func Compile(stream *dist.Stream, cfg Config) Plan {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * time.Minute
	}
	root := stream.Named("chaos")
	var faults []Fault
	for k := Kind(0); k < numKinds; k++ {
		kindRoot := root.Named(k.String())
		for i := 0; i < cfg.Counts[k]; i++ {
			st := kindRoot.SplitLabel(uint64(i))
			f := Fault{Kind: k, Ordinal: i}
			f.At = time.Duration(st.Float64() * float64(cfg.Horizon)).Truncate(time.Millisecond)
			f.Target = st.Uint64()
			window := windowMin + time.Duration(st.Float64()*float64(windowMax-windowMin))
			skew := skewMin + time.Duration(st.Float64()*float64(skewMax-skewMin))
			if k.windowed() {
				f.Until = (f.At + window).Truncate(time.Millisecond)
			}
			if k == CommitSkew || k == ReplicaLag {
				f.Delay = skew.Truncate(time.Millisecond)
			}
			faults = append(faults, f)
		}
	}
	sort.Slice(faults, func(a, b int) bool {
		if faults[a].At != faults[b].At {
			return faults[a].At < faults[b].At
		}
		if faults[a].Kind != faults[b].Kind {
			return faults[a].Kind < faults[b].Kind
		}
		return faults[a].Ordinal < faults[b].Ordinal
	})
	return Plan{Horizon: cfg.Horizon, Faults: faults}
}

// Truncate returns the plan reduced to its first n faults (injection
// order) — the bisection step: the smallest failing prefix isolates the
// fault that first matters.
func (p Plan) Truncate(n int) Plan {
	if n < 0 {
		n = 0
	}
	if n > len(p.Faults) {
		n = len(p.Faults)
	}
	return Plan{Horizon: p.Horizon, Faults: p.Faults[:n]}
}

// Hash folds the schedule into a 64-bit identity, used to prove two runs
// compiled the same plan before comparing their schedules.
func (p Plan) Hash() uint64 {
	h := uint64(len(p.Faults))
	mix := func(v uint64) {
		h ^= v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	mix(uint64(p.Horizon))
	for _, f := range p.Faults {
		mix(uint64(f.Kind)<<32 | uint64(uint32(f.Ordinal)))
		mix(uint64(f.At))
		mix(uint64(f.Until))
		mix(f.Target)
		mix(uint64(f.Delay))
	}
	return h
}
