package chaos

import (
	"fmt"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// Violation is one invariant breach, timestamped in virtual time.
type Violation struct {
	// Invariant names the broken invariant (stable identifiers:
	// "exactly-once", "cursor-rewind", "stranded-barrier",
	// "retry-budget", "leaked-reservation", "completeness",
	// "shard-placement", "diverged-replica-after-repair", plus whatever
	// a scenario reports through Violate).
	Invariant string
	// At is the virtual instant of detection (offset from vclock.Epoch).
	At time.Duration
	// Detail describes the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s @%v] %s", v.Invariant, v.At, v.Detail)
}

// Checker is the invariant suite that runs continuously during a chaos
// scenario. The streaming-side checks are fed by hooks (the group
// handler calls Handled, ClusterConfig.OnCommit calls OnCommit); the
// batch-side checks run once the workload quiesces (CheckUnits,
// CheckPilots after reconcile). All methods are safe for concurrent use.
type Checker struct {
	clock vclock.Clock

	mu         sync.Mutex
	handled    map[uint64]int    // partition<<48|offset -> times processed
	commits    map[partKey]int64 // last commit mark seen
	violations []Violation
}

// partKey names one partition. A struct, not a formatted string: OnCommit
// builds one on every applied commit, under the cluster lock.
type partKey struct {
	topic     string
	partition int
}

// NewChecker builds a checker; clock timestamps violations (virtual
// offsets from vclock.Epoch).
func NewChecker(clock vclock.Clock) *Checker {
	return &Checker{
		clock:   clock,
		handled: make(map[uint64]int),
		commits: make(map[partKey]int64),
	}
}

// Violate records a breach. Scenario code uses it for checks the suite
// cannot see from its hooks (e.g. liveness watchdogs).
func (c *Checker) Violate(invariant, format string, args ...any) {
	v := Violation{
		Invariant: invariant,
		At:        c.clock.Now().Sub(vclock.Epoch),
		Detail:    fmt.Sprintf(format, args...),
	}
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
}

// Violations returns the breaches recorded so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Handled asserts exactly-once processing: the group handler calls it
// per message, and a (partition, offset) seen twice is a duplicate —
// under the generation barrier no partition ever has two simultaneous
// owners, so a second delivery means an ownership overlap (e.g. the
// barrier-carry defect) let a retiree and its successor process the same
// offsets.
func (c *Checker) Handled(partition int, offset int64) {
	key := uint64(partition)<<48 | uint64(offset)
	c.mu.Lock()
	n := c.handled[key] + 1
	c.handled[key] = n
	c.mu.Unlock()
	if n > 1 {
		c.Violate("exactly-once", "partition %d offset %d processed %d times", partition, offset, n)
	}
}

// HandledCount returns how many distinct (partition, offset) pairs were
// processed — the completeness numerator.
func (c *Checker) HandledCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.handled)
}

// OnCommit asserts the consumer cursor never rewinds; wire it to
// streaming.ClusterConfig.OnCommit. The broker reports applied commits
// only, so each must strictly advance the last mark this checker saw and
// start where the previous one ended.
func (c *Checker) OnCommit(topic string, partition int, from, through int64) {
	key := partKey{topic, partition}
	c.mu.Lock()
	prev, seen := c.commits[key]
	if !seen || through > prev {
		c.commits[key] = through
	}
	c.mu.Unlock()
	if through <= from {
		c.Violate("cursor-rewind", "%s/%d: commit through %d does not advance from %d", topic, partition, through, from)
		return
	}
	if seen && from != prev {
		c.Violate("cursor-rewind", "%s/%d: commit starts at %d, last mark was %d", topic, partition, from, prev)
	}
}

// CheckCompleteness asserts every produced message was processed (run it
// after the workload quiesces, with stalls recovered).
func (c *Checker) CheckCompleteness(produced int) {
	if got := c.HandledCount(); got != produced {
		c.Violate("completeness", "processed %d of %d produced messages", got, produced)
	}
}

// CheckBarrier asserts no generation barrier is stranded once the group
// has quiesced: every membership change must eventually activate.
func (c *Checker) CheckBarrier(g *streaming.Group) {
	if n := g.BarrierPending(); n > 0 {
		c.Violate("stranded-barrier", "generation barrier still waiting on %d workers", n)
	}
}

// CheckPlacement asserts a federated cluster reconverged after shard
// losses: once the workload quiesces, every partition must have a live
// leader and a full replica set — full meaning min(replication target,
// live shards), since fewer live shards than the target leaves nothing
// to recruit — with no recruit still syncing.
func (c *Checker) CheckPlacement(cl *streaming.Cluster) {
	want := cl.Replication()
	if live := len(cl.LiveShards()); want > live {
		want = live
	}
	for _, p := range cl.Placement() {
		if len(p.Replicas) < want {
			c.Violate("shard-placement", "%s[%d] has %d of %d replicas after quiesce",
				p.Topic, p.Partition, len(p.Replicas), want)
		}
		if p.Syncing {
			c.Violate("shard-placement", "%s[%d] still re-replicating after quiesce", p.Topic, p.Partition)
		}
	}
}

// CheckReplicas asserts replica-log convergence: after the workload
// quiesces (faults recovered, replication lag drained), every replica's
// epoch-span chain must agree with its leader's — a replica still
// holding a suffix the leader never acknowledged means divergence repair
// failed to truncate and re-stream it ("diverged-replica-after-repair",
// the invariant the rehomed stale-handoff defect trips).
func (c *Checker) CheckReplicas(cl *streaming.Cluster, topic string) {
	for _, d := range cl.CheckReplicaConsistency(topic) {
		c.Violate("diverged-replica-after-repair", "%s", d)
	}
}

// CheckUnits asserts retry-budget conservation: a unit is dispatched at
// most MaxRetries+1 times, whatever mix of crashes, outages and
// reconcile corrections it survived, and every unit has reached a
// terminal state.
func (c *Checker) CheckUnits(units []*core.ComputeUnit) {
	for _, u := range units {
		if budget := u.Description().MaxRetries + 1; u.Attempts() > budget {
			c.Violate("retry-budget", "unit %s: %d attempts exceed budget %d", u.ID(), u.Attempts(), budget)
		}
		if !u.State().Terminal() {
			c.Violate("completeness", "unit %s still %v after quiesce", u.ID(), u.State())
		}
	}
}

// CheckPilots asserts no leaked reservations: after the workload
// quiesced and reconcile ran, every still-running pilot must be fully
// drained — all cores free, nothing running or queued. A shortfall means
// a crash path returned a unit without returning its cores.
func (c *Checker) CheckPilots(pilots []*core.Pilot) {
	for _, p := range pilots {
		if p.State() != core.PilotRunning {
			continue
		}
		if r := p.RunningUnits(); r > 0 {
			c.Violate("leaked-reservation", "pilot %s: %d units still running after quiesce", p.ID(), r)
		}
		if q := p.QueuedUnits(); q > 0 {
			c.Violate("leaked-reservation", "pilot %s: %d units still queued after quiesce", p.ID(), q)
		}
		if free, total := p.FreeCores(), p.TotalCores(); free != total {
			c.Violate("leaked-reservation", "pilot %s: %d of %d cores free after quiesce", p.ID(), free, total)
		}
	}
}
