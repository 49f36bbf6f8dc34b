package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// Violation is one invariant breach, timestamped in virtual time.
type Violation struct {
	// Invariant names the broken invariant (stable identifiers:
	// "exactly-once", "cursor-rewind", "watermark-monotone",
	// "stranded-barrier", "retry-budget", "leaked-reservation",
	// "completeness", "shard-placement", "diverged-replica-after-repair",
	// plus whatever a scenario reports through Violate, e.g. "liveness"
	// or E13's "resident-bound").
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
// scenario and under E13. The streaming-side checks are fed by hooks (the
// group handler calls Handled, ClusterConfig.OnCommit and OnAcked call
// OnCommit and OnAcked); the batch-side checks run once the workload
// quiesces (CheckUnits, CheckPilots after reconcile). All methods are
// safe for concurrent use.
type Checker struct {
	clock vclock.Clock
	next  []atomic.Int64 // per partition: the offset Handled expects next

	mu         sync.Mutex
	marks      map[markKey]int64 // last commit mark / acked watermark seen
	violations []Violation
}

// markKey names one partition's mark under one invariant. A struct, not a
// formatted string: the hooks build one on every applied commit and
// watermark advance, under the cluster lock.
type markKey struct {
	invariant, topic string
	partition        int
}

// NewChecker builds a checker for a topic of the given partition count;
// clock timestamps violations (virtual offsets from vclock.Epoch).
func NewChecker(clock vclock.Clock, partitions int) *Checker {
	return &Checker{
		clock: clock,
		next:  make([]atomic.Int64, partitions),
		marks: make(map[markKey]int64, 2*partitions), // a commit mark and a watermark per partition
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

// Handled asserts exactly-once in-order processing: the group handler
// calls it per message, and each delivery must carry its partition's
// expected next offset. The generation barrier gives a partition one
// owner at a time, so the compare-and-swap never contends; a redelivery
// means an ownership overlap (e.g. the barrier-carry defect). After a
// mismatch the slot resumes past the delivered offset: one break, one
// violation.
func (c *Checker) Handled(partition int, offset int64) {
	slot := &c.next[partition]
	if slot.CompareAndSwap(offset, offset+1) {
		return
	}
	want := slot.Load()
	c.Violate("exactly-once", "partition %d: delivered offset %d, expected %d", partition, offset, want)
	for cur := want; cur <= offset && !slot.CompareAndSwap(cur, offset+1); cur = slot.Load() {
	}
}

// HandledCount returns the sum of the partitions' expected next offsets:
// how many messages were processed, the completeness numerator.
func (c *Checker) HandledCount() int {
	n := int64(0)
	for i := range c.next {
		n += c.next[i].Load()
	}
	return int(n)
}

// OnCommit asserts the consumer cursor never rewinds; wire it to
// streaming.ClusterConfig.OnCommit. The broker reports applied commits
// only, so each must start where the previous one ended (at 0 the first
// time) and strictly advance.
func (c *Checker) OnCommit(topic string, partition int, from, through int64) {
	c.advance("cursor-rewind", topic, partition, from, through)
}

// OnAcked asserts the quorum watermark advances the same way, across
// handoffs too; wire it to streaming.ClusterConfig.OnAcked.
func (c *Checker) OnAcked(topic string, partition int, from, to int64) {
	c.advance("watermark-monotone", topic, partition, from, to)
}

// advance checks one step [from, to) of a per-partition mark that must
// move forward gaplessly from 0.
func (c *Checker) advance(invariant, topic string, partition int, from, to int64) {
	key := markKey{invariant, topic, partition}
	c.mu.Lock()
	prev := c.marks[key]
	c.marks[key] = max(prev, to)
	c.mu.Unlock()
	if to <= from {
		c.Violate(invariant, "%s/%d: mark through %d does not advance from %d", topic, partition, to, from)
	} else if from != prev {
		c.Violate(invariant, "%s/%d: mark starts at %d, last mark was %d", topic, partition, from, prev)
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
// losses: once the workload quiesces, no partition may be
// under-replicated (Cluster.UnderReplicated: a short replica set, a
// recruit still syncing, or a lagging follower).
func (c *Checker) CheckPlacement(cl *streaming.Cluster) {
	if n := cl.UnderReplicated(); n > 0 {
		c.Violate("shard-placement", "%d partitions under-replicated after quiesce", n)
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
