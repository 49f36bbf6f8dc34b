package chaos

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/infra"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// Backend is one infrastructure target the engine can take down.
type Backend struct {
	// Name labels the backend in the applied-fault log.
	Name string
	// Faults is the backend's switchboard (its Faults() accessor).
	Faults *infra.Faults
	// OnRecover, if set, runs at the outage-clear instant — typically
	// Manager.Kick, so the dispatcher immediately re-considers pilots the
	// outage had filtered out of Candidates.
	OnRecover func()
}

// Targets are the live handles the engine injects faults into. Any
// subset may be nil/empty; faults without a target are logged as skipped
// rather than erroring, so one plan can run against scenarios of
// different shapes.
type Targets struct {
	// Clock paces the injection timeline (required).
	Clock vclock.Clock
	// Backends are outage victims, indexed by Target modulo the count.
	Backends []Backend
	// LivePilots returns the pilots currently eligible to crash; the
	// engine picks Target modulo the count. Return only non-terminal
	// pilots so crashes always hit something alive.
	LivePilots func() []*core.Pilot
	// Storm triggers an evict storm and reports how many glideins it hit.
	Storm func() int
	// Topic names the topic whose partitions stall faults hit.
	Topic string
	// Group is the consumer group churned by WorkerChurn.
	Group *streaming.Group
	// Cluster is the broker every stall, skew, shard and link fault acts on.
	Cluster *streaming.Cluster
}

// Applied is one injection-log entry: what a fault actually hit.
type Applied struct {
	// Fault is the scheduled fault.
	Fault Fault
	// At is the modeled injection instant (offset from Run's start).
	At time.Duration
	// Hit reports whether the fault found a victim.
	Hit bool
	// Note names the victim or the skip reason.
	Note string
}

// Engine replays a Plan against Targets. Run is a clock participant: it
// sleeps from event to event on the injected clock, so faults land at
// exact virtual instants, deterministically interleaved with the
// workload.
type Engine struct {
	plan Plan
	t    Targets

	mu      sync.Mutex
	applied []Applied
}

// NewEngine pairs a plan with its targets.
func NewEngine(plan Plan, t Targets) *Engine {
	return &Engine{plan: plan, t: t}
}

// event is one timeline entry: a fault's injection or recovery.
type event struct {
	at  time.Duration
	seq int // 2·i for fault i's injection, 2·i+1 for its recovery
	fn  func(now time.Duration)
}

// Run injects the plan. It returns when the last event has fired or ctx
// is canceled; on cancellation every outstanding recovery runs
// immediately so no backend or partition is left down past the scenario.
// The injection log is also available from Log afterwards.
func (e *Engine) Run(ctx context.Context) []Applied {
	events, recoveries := e.timeline()
	start := e.t.Clock.Now()
	for _, ev := range events {
		if d := ev.at - e.t.Clock.Now().Sub(start); d > 0 {
			if !e.t.Clock.Sleep(ctx, d) {
				break
			}
		}
		if ctx.Err() != nil {
			break
		}
		now := e.t.Clock.Now().Sub(start)
		ev.fn(now)
		delete(recoveries, ev.seq)
	}
	// Cancellation path: clear anything still down, at the current instant.
	if len(recoveries) > 0 {
		now := e.t.Clock.Now().Sub(start)
		seqs := make([]int, 0, len(recoveries))
		for seq := range recoveries {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		for _, seq := range seqs {
			recoveries[seq](now)
		}
	}
	return e.Log()
}

// Log returns the injection log so far, injection order.
func (e *Engine) Log() []Applied {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Applied(nil), e.applied...)
}

func (e *Engine) record(f Fault, now time.Duration, hit bool, format string, args ...any) {
	a := Applied{Fault: f, At: now, Hit: hit, Note: fmt.Sprintf(format, args...)}
	e.mu.Lock()
	e.applied = append(e.applied, a)
	e.mu.Unlock()
	// Marks land in the schedule recorder, so a recorded trace shows the
	// exact decision at which each fault entered the timeline.
	if e.t.Clock.Recording() {
		e.t.Clock.Mark("chaos "+f.Kind.String()+" "+a.Note, uint64(f.Ordinal))
	}
}

// timeline expands the plan into sorted events. Recovery closures are
// returned separately, keyed by event seq, so Run can fire the
// outstanding ones on early exit. Events sort by (at, seq): a recovery
// scheduled at the same instant as a later fault's injection runs first
// exactly when its fault was scheduled first — the plan's order is the
// tiebreak, fixed at compile time.
func (e *Engine) timeline() ([]event, map[int]func(now time.Duration)) {
	var events []event
	recoveries := make(map[int]func(now time.Duration))
	add := func(at time.Duration, seq int, fn func(now time.Duration)) {
		events = append(events, event{at: at, seq: seq, fn: fn})
	}
	for i, f := range e.plan.Faults {
		f := f
		inj, rec := 2*i, 2*i+1
		switch f.Kind {
		case BackendOutage:
			if len(e.t.Backends) == 0 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no backends") })
				continue
			}
			b := e.t.Backends[int(f.Target%uint64(len(e.t.Backends)))]
			add(f.At, inj, func(now time.Duration) {
				b.Faults.SetDown(true)
				e.record(f, now, true, "down %s", b.Name)
			})
			undo := func(now time.Duration) {
				b.Faults.SetDown(false)
				if b.OnRecover != nil {
					b.OnRecover()
				}
				e.record(f, now, true, "up %s", b.Name)
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case PilotCrash:
			add(f.At, inj, func(now time.Duration) {
				if e.t.LivePilots == nil {
					e.record(f, now, false, "no pilot source")
					return
				}
				pilots := e.t.LivePilots()
				if len(pilots) == 0 {
					e.record(f, now, false, "no live pilots")
					return
				}
				p := pilots[int(f.Target%uint64(len(pilots)))]
				p.Kill()
				e.record(f, now, true, "killed %s", p.ID())
			})
		case EvictStorm:
			add(f.At, inj, func(now time.Duration) {
				if e.t.Storm == nil {
					e.record(f, now, false, "no storm target")
					return
				}
				n := e.t.Storm()
				e.record(f, now, n > 0, "evicted %d glideins", n)
			})
		case PartitionStall:
			if e.t.Cluster == nil {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no broker") })
				continue
			}
			nparts, err := e.t.Cluster.Partitions(e.t.Topic)
			if err != nil || nparts == 0 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no partitions") })
				continue
			}
			part := int(f.Target % uint64(nparts))
			add(f.At, inj, func(now time.Duration) {
				e.t.Cluster.SetPartitionDown(e.t.Topic, part, true)
				e.record(f, now, true, "stalled %s[%d]", e.t.Topic, part)
			})
			undo := func(now time.Duration) {
				e.t.Cluster.SetPartitionDown(e.t.Topic, part, false)
				e.record(f, now, true, "restored %s[%d]", e.t.Topic, part)
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case CommitSkew:
			if e.t.Cluster == nil {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no broker") })
				continue
			}
			add(f.At, inj, func(now time.Duration) {
				e.t.Cluster.SetCommitDelay(f.Delay)
				e.record(f, now, true, "commit delay %v", f.Delay)
			})
			undo := func(now time.Duration) {
				e.t.Cluster.SetCommitDelay(0)
				e.record(f, now, true, "commit delay cleared")
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case WorkerChurn:
			add(f.At, inj, func(now time.Duration) {
				if e.t.Group == nil {
					e.record(f, now, false, "no group")
					return
				}
				members := e.t.Group.Members()
				if len(members) == 0 {
					e.record(f, now, false, "no members")
					return
				}
				ord := members[int(f.Target%uint64(len(members)))]
				if err := e.t.Group.RemoveWorker(ord); err != nil {
					e.record(f, now, false, "remove %d: %v", ord, err)
					return
				}
				repl, err := e.t.Group.AddWorker()
				if err != nil {
					e.record(f, now, false, "removed %d, add failed: %v", ord, err)
					return
				}
				e.record(f, now, true, "churned worker %d -> %d", ord, repl)
			})
		case ShardLoss:
			add(f.At, inj, func(now time.Duration) {
				if e.t.Cluster == nil {
					e.record(f, now, false, "no cluster")
					return
				}
				live := e.t.Cluster.LiveShards()
				if len(live) <= 1 {
					e.record(f, now, false, "only %d live shard(s)", len(live))
					return
				}
				id := live[int(f.Target%uint64(len(live)))]
				if err := e.t.Cluster.FailShard(id); err != nil {
					e.record(f, now, false, "fail shard %d: %v", id, err)
					return
				}
				e.record(f, now, true, "lost shard %d (%d handoffs total)", id, e.t.Cluster.Handoffs())
			})
		case ShardLink:
			if e.t.Cluster == nil || e.t.Cluster.ShardCount() < 2 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no cluster shards to partition") })
				continue
			}
			// The victim pair derives from Target at compile-known shard
			// count, so injection and recovery name the same link.
			n := e.t.Cluster.ShardCount()
			a := int(f.Target % uint64(n))
			b := (a + 1 + int((f.Target>>16)%uint64(n-1))) % n
			add(f.At, inj, func(now time.Duration) {
				if err := e.t.Cluster.SeverLink(a, b); err != nil {
					e.record(f, now, false, "sever %d<->%d: %v", a, b, err)
					return
				}
				e.record(f, now, true, "severed link %d<->%d", a, b)
			})
			undo := func(now time.Duration) {
				if err := e.t.Cluster.HealLink(a, b); err != nil {
					e.record(f, now, false, "heal %d<->%d: %v", a, b, err)
					return
				}
				e.record(f, now, true, "healed link %d<->%d", a, b)
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case ReplicaLag:
			if e.t.Cluster == nil || e.t.Cluster.ShardCount() < 2 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no cluster links to lag") })
				continue
			}
			// Victim pair and severity derive from the compiled fault, so
			// injection and recovery name the same link at the same factor.
			n := e.t.Cluster.ShardCount()
			a := int(f.Target % uint64(n))
			b := (a + 1 + int((f.Target>>16)%uint64(n-1))) % n
			factor := 1 + f.Delay.Seconds()*2
			add(f.At, inj, func(now time.Duration) {
				if err := e.t.Cluster.SetLinkLag(a, b, factor); err != nil {
					e.record(f, now, false, "lag %d<->%d: %v", a, b, err)
					return
				}
				e.record(f, now, true, "lagged link %d<->%d x%.1f", a, b, factor)
			})
			undo := func(now time.Duration) {
				if err := e.t.Cluster.SetLinkLag(a, b, 1); err != nil {
					e.record(f, now, false, "unlag %d<->%d: %v", a, b, err)
					return
				}
				e.record(f, now, true, "link %d<->%d back to nominal", a, b)
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case TornReplication:
			if e.t.Cluster == nil || e.t.Topic == "" || e.t.Cluster.Replication() < 2 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no replicated cluster topic") })
				continue
			}
			nparts, err := e.t.Cluster.Partitions(e.t.Topic)
			if err != nil || nparts == 0 {
				add(f.At, inj, func(now time.Duration) { e.record(f, now, false, "no partitions") })
				continue
			}
			part := int(f.Target % uint64(nparts))
			slot := int((f.Target >> 16) % uint64(e.t.Cluster.Replication()-1))
			add(f.At, inj, func(now time.Duration) {
				if err := e.t.Cluster.FreezeReplica(e.t.Topic, part, slot, true); err != nil {
					e.record(f, now, false, "freeze %s[%d] slot %d: %v", e.t.Topic, part, slot, err)
					return
				}
				e.record(f, now, true, "tore replication %s[%d] slot %d", e.t.Topic, part, slot)
			})
			undo := func(now time.Duration) {
				if err := e.t.Cluster.FreezeReplica(e.t.Topic, part, slot, false); err != nil {
					e.record(f, now, false, "resume %s[%d] slot %d: %v", e.t.Topic, part, slot, err)
					return
				}
				e.record(f, now, true, "resumed replication %s[%d] slot %d", e.t.Topic, part, slot)
			}
			add(f.Until, rec, undo)
			recoveries[rec] = undo
		case CrashMidCatchup:
			add(f.At, inj, func(now time.Duration) {
				if e.t.Cluster == nil {
					e.record(f, now, false, "no cluster")
					return
				}
				var syncing []int // shards recruited on any partition, ascending
				for _, pl := range e.t.Cluster.Placement() {
					syncing = append(syncing, pl.Syncing...)
				}
				slices.Sort(syncing)
				syncing = slices.Compact(syncing)
				if len(syncing) == 0 {
					e.record(f, now, false, "no shard mid-catchup")
					return
				}
				if len(e.t.Cluster.LiveShards()) <= 1 {
					e.record(f, now, false, "only one live shard")
					return
				}
				id := syncing[int(f.Target%uint64(len(syncing)))]
				if err := e.t.Cluster.FailShard(id); err != nil {
					e.record(f, now, false, "fail syncing shard %d: %v", id, err)
					return
				}
				e.record(f, now, true, "crashed shard %d mid-catchup", id)
			})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].seq < events[b].seq
	})
	return events, recoveries
}
