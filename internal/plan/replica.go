package plan

import (
	"hash/fnv"
	"slices"
)

// Replication decisions for the federated streaming plane: where each
// partition's replicas live (ShardReplicas) and, once placed, one
// partition's replica set as a value (Replicas) whose methods are the whole
// policy — the acknowledged watermark, the lag, what survives a handoff,
// promotion and recruitment when a shard dies, and a catch-up runner's next
// move. The streaming Cluster stays a thin executor: it keeps the logs, the
// waiters and the clock, passes log summaries in and applies what comes
// back — the same desired-vs-actual split the TickPlanner and Reconciler
// give pilot dispatch.
//
// Each shard keeps a physical per-partition log whose batches are tagged
// with the leadership epoch that appended them. Because there is exactly
// one writer per epoch (the leader serializes appends), two logs agree on
// an offset range iff they agree on the epoch chain covering it — so
// divergence detection reduces to comparing the compact epoch-span chains
// rather than message payloads. All of this is pure decision logic: no
// clocks, no locks, no I/O (seed-audit rules 6, 9) — same inputs, same
// placement and the same recovery, on every run.

// Replicas is one partition's replication state. A member counts toward
// the watermark unless it is Syncing — the one place that rule is read.
type Replicas struct {
	// Members are the shards holding a copy, leader first.
	Members []int
	// Syncing lists the recruits still catching up: members that replicate
	// like any follower but do not count toward the watermark.
	Syncing []int
	// Epoch is the leadership epoch, bumped per handoff.
	Epoch int
	// Acked is the acknowledged high watermark: offsets below it are on
	// every full member. Monotone.
	Acked int64
	// AckedAt[e] is the watermark at the instant epoch e was installed —
	// the truncation point of that handoff. One entry per epoch.
	AckedAt []int64
}

// ShardReplicas returns the desired replica set for one partition of a
// federated topic over the given live shard ring: replication shards,
// leader first, starting at live[(fnv64(topic)+partition) mod len(live)]
// and continuing in ring order. The topic hash spreads leaders of
// different topics across the ring; the +partition rotation spreads one
// topic's partitions. live must be sorted (the caller's canonical shard
// order); replication is clamped to len(live).
func ShardReplicas(topic string, partition int, live []int, replication int) []int {
	if len(live) == 0 {
		return nil
	}
	if replication <= 0 {
		replication = 1
	}
	if replication > len(live) {
		replication = len(live)
	}
	h := fnv.New64a()
	h.Write([]byte(topic))
	start := int((h.Sum64() + uint64(partition)) % uint64(len(live)))
	out := make([]int, replication)
	for i := range out {
		out[i] = live[(start+i)%len(live)]
	}
	return out
}

// PlaceReplicas places a new partition on the live ring (ShardReplicas)
// at epoch 0 with nothing acknowledged.
func PlaceReplicas(topic string, partition int, live []int, replication int) Replicas {
	return Replicas{Members: ShardReplicas(topic, partition, live, replication), AckedAt: []int64{0}}
}

// full reports whether member s counts toward the watermark.
func (r *Replicas) full(s int) bool { return !slices.Contains(r.Syncing, s) }

// drop removes s from xs in place, keeping the order of the rest.
func drop(xs []int, s int) []int {
	return slices.DeleteFunc(xs, func(v int) bool { return v == s })
}

// Ack advances the watermark to the minimum log end over full members,
// end(s) being member s's log end, and reports the value it moved from.
// The watermark never falls: an unclean promotion can leave it above the
// new leader's end, and the gap surfaces as data loss through the
// completeness invariants rather than as a silent rewind.
func (r *Replicas) Ack(end func(shard int) int64) (from int64, moved bool) {
	lo := int64(-1)
	for _, s := range r.Members {
		if !r.full(s) {
			continue
		}
		if e := end(s); lo < 0 || e < lo {
			lo = e
		}
	}
	if lo <= r.Acked {
		return r.Acked, false
	}
	from, r.Acked = r.Acked, lo
	return from, true
}

// Lag is the largest replication lag in messages (leader end − follower
// end) over the full followers.
func (r *Replicas) Lag(end func(shard int) int64) int64 {
	var lag int64
	for _, s := range r.Members[1:] {
		if r.full(s) {
			lag = max(lag, end(r.Members[0])-end(s))
		}
	}
	return lag
}

// Kept says how many messages of a batch appended at [s, e) under epoch
// survived the first handoff after it: the ones below that handoff's
// truncation point. Later handoffs truncate at or above it (the watermark
// is monotone), so only the first one decides.
func (r *Replicas) Kept(epoch int, s, e int64) int64 {
	return min(r.AckedAt[epoch+1], e) - s
}

// Fail removes a dead shard from the set. If it led, the epoch is bumped,
// its watermark recorded in AckedAt, and the first full survivor promoted
// — or, when no full member survived, the first member, unclean: its
// missing suffix is genuine data loss. Then the live ring (live ascending,
// dead excluded) is walked from just past the leader, recruiting each
// non-member as a syncing member until the set holds min(replication,
// len(live)) shards; recruits is that tail of Members. A shard that is not
// a member changes nothing, and a set left empty (the caller refuses to
// lose a sole holder) recruits nothing.
func (r *Replicas) Fail(dead int, live []int, replication int) (led, unclean bool, recruits []int) {
	if !slices.Contains(r.Members, dead) {
		return false, false, nil
	}
	led = r.Members[0] == dead
	r.Members = drop(r.Members, dead)
	r.Syncing = drop(r.Syncing, dead)
	if led {
		r.Epoch++
		r.AckedAt = append(r.AckedAt, r.Acked)
		if len(r.Members) == 0 {
			return led, false, nil
		}
		i := slices.IndexFunc(r.Members, r.full)
		if i < 0 {
			i, unclean = 0, true
			r.Syncing = drop(r.Syncing, r.Members[0])
		}
		nl := r.Members[i]
		r.Members = append([]int{nl}, drop(r.Members, nl)...)
	}
	n := len(r.Members)
	origin := max(slices.Index(live, r.Members[0]), 0)
	for i := 1; i <= len(live) && len(r.Members) < min(replication, len(live)); i++ {
		if s := live[(origin+i)%len(live)]; !slices.Contains(r.Members, s) {
			r.Members = append(r.Members, s)
			r.Syncing = append(r.Syncing, s)
		}
	}
	return led, unclean, r.Members[n:]
}

// LogState summarizes one copy of the log for Round: its retention floor,
// its end and its epoch-span chain.
type LogState struct {
	First, End int64
	Spans      []EpochSpan
}

// Move is a catch-up runner's next step for one follower, returned by
// Round with the offset it acts at.
type Move int

const (
	Repair    Move = iota // diverged: truncate to the offset and re-stream from there
	Bootstrap             // behind the leader's retention floor: reset to an empty log at it
	Stream                // replicate the leader's log from the offset, the follower's end
	Synced                // a recruit caught up: now a full member, the watermark may move
	Idle                  // a full follower caught up: wait for the leader to append
)

// Round decides a catch-up runner's next move for follower shard, given
// both logs. A divergence is repaired only when repair is set (the planted
// stale-handoff defect streams blindly past a stale suffix).
func (r *Replicas) Round(shard int, leader, follower LogState, repair bool) (Move, int64) {
	if repair {
		if at, ok := DivergencePoint(leader.Spans, follower.Spans, max(leader.First, follower.First), leader.End, follower.End); ok {
			return Repair, at
		}
	}
	switch {
	case follower.End < leader.First:
		return Bootstrap, leader.First
	case follower.End < leader.End:
		return Stream, follower.End
	case !r.full(shard):
		r.Syncing = drop(r.Syncing, shard)
		return Synced, follower.End
	}
	return Idle, follower.End
}

// EpochSpan records that offsets in [Start, nextSpan.Start) were appended
// under the given leadership epoch. A log's chain is ordered by Start and
// the final span extends to the log's end offset.
type EpochSpan struct {
	Start int64
	Epoch int
}

// epochAt returns the epoch governing offset o in the given chain, or
// (-1, false) if o precedes every span (the chain has been trimmed past
// the point of interest — caller should treat as unknown).
func epochAt(spans []EpochSpan, o int64) (int, bool) {
	e, ok := -1, false
	for _, s := range spans {
		if s.Start > o {
			break
		}
		e, ok = s.Epoch, true
	}
	return e, ok
}

// DivergencePoint compares a replica's epoch-span chain against the
// leader's over [from, replicaEnd) and returns the first offset at which
// the replica's log provably disagrees with the leader's, plus whether
// such a point exists.
//
//   - A replica that is merely *short* (replicaEnd < leaderEnd, chains
//     matching over its range) is lagging, not diverged: returns (0, false).
//   - A replica holding offsets the leader does not (replicaEnd >
//     leaderEnd) is diverged at leaderEnd: those entries were acknowledged
//     only locally by a deposed leader.
//   - A replica whose epoch at some offset differs from the leader's epoch
//     at the same offset is diverged at the first such offset.
//
// Offsets below `from` (trimmed on either side) are assumed consistent:
// trimming only discards offsets below the quorum watermark, which both
// logs agreed on by definition.
func DivergencePoint(leader, replica []EpochSpan, from, leaderEnd, replicaEnd int64) (int64, bool) {
	if replicaEnd > leaderEnd {
		// Suffix the leader does not have. Check the shared range first:
		// it may diverge even earlier.
		if at, ok := DivergencePoint(leader, replica, from, leaderEnd, leaderEnd); ok {
			return at, true
		}
		return leaderEnd, true
	}
	// Walk the boundary offsets of both chains within [from, replicaEnd):
	// epochs are constant between boundaries, so checking each boundary
	// (and `from` itself) covers the whole range.
	check := func(o int64) (int64, bool) {
		if o < from || o >= replicaEnd {
			return 0, false
		}
		le, lok := epochAt(leader, o)
		re, rok := epochAt(replica, o)
		if lok && rok && le != re {
			return o, true
		}
		return 0, false
	}
	best, found := int64(0), false
	consider := func(o int64) {
		if at, ok := check(o); ok && (!found || at < best) {
			best, found = at, ok
		}
	}
	consider(from)
	for _, s := range leader {
		consider(s.Start)
	}
	for _, s := range replica {
		consider(s.Start)
	}
	return best, found
}
