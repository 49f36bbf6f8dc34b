package plan

import (
	"fmt"
	"slices"
	"testing"
)

func spans(pairs ...int64) []EpochSpan {
	out := make([]EpochSpan, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, EpochSpan{Start: pairs[i], Epoch: int(pairs[i+1])})
	}
	return out
}

func TestDivergencePointSyncedAndLagging(t *testing.T) {
	leader := spans(0, 0, 100, 1)
	// Identical chain, identical end: synced.
	if _, ok := DivergencePoint(leader, spans(0, 0, 100, 1), 0, 150, 150); ok {
		t.Fatalf("identical logs reported diverged")
	}
	// Strict prefix (shorter, chain matches): lagging, not diverged.
	if _, ok := DivergencePoint(leader, spans(0, 0), 0, 150, 80); ok {
		t.Fatalf("lagging prefix reported diverged")
	}
	// Prefix that includes part of the second epoch.
	if _, ok := DivergencePoint(leader, spans(0, 0, 100, 1), 0, 150, 120); ok {
		t.Fatalf("lagging prefix across epoch boundary reported diverged")
	}
}

func TestDivergencePointStaleSuffix(t *testing.T) {
	// Replica kept writing under epoch 0 past offset 100 while the new
	// leader's chain switches to epoch 1 at 100.
	leader := spans(0, 0, 100, 1)
	replica := spans(0, 0)
	at, ok := DivergencePoint(leader, replica, 0, 150, 130)
	if !ok || at != 100 {
		t.Fatalf("DivergencePoint = (%d,%v), want (100,true)", at, ok)
	}
}

func TestDivergencePointReplicaLonger(t *testing.T) {
	// Replica holds offsets past the leader's end under the same epoch:
	// locally-acked-only suffix, diverged at leaderEnd.
	leader := spans(0, 0)
	replica := spans(0, 0)
	at, ok := DivergencePoint(leader, replica, 0, 100, 120)
	if !ok || at != 100 {
		t.Fatalf("DivergencePoint = (%d,%v), want (100,true)", at, ok)
	}
	// Longer AND chain-diverged earlier: the earlier point wins.
	leader = spans(0, 0, 50, 2)
	replica = spans(0, 0, 50, 1)
	at, ok = DivergencePoint(leader, replica, 0, 100, 120)
	if !ok || at != 50 {
		t.Fatalf("DivergencePoint = (%d,%v), want (50,true)", at, ok)
	}
}

func TestDivergencePointRespectsFrom(t *testing.T) {
	// Disagreement exists only below `from` (both trimmed past it):
	// treated as consistent.
	leader := spans(0, 0, 100, 2)
	replica := spans(0, 0, 100, 1, 140, 2)
	at, ok := DivergencePoint(leader, replica, 140, 200, 200)
	if ok {
		t.Fatalf("divergence below from reported: at=%d", at)
	}
	// With from lowered the epoch-1 stretch is visible again.
	at, ok = DivergencePoint(leader, replica, 100, 200, 200)
	if !ok || at != 100 {
		t.Fatalf("DivergencePoint = (%d,%v), want (100,true)", at, ok)
	}
}

func TestDivergencePointMidSpanBoundary(t *testing.T) {
	// Divergence boundary falls inside a leader span: first replica
	// boundary past `from` is the detection point.
	leader := spans(0, 0, 80, 1, 160, 3)
	replica := spans(0, 0, 80, 1, 160, 2)
	at, ok := DivergencePoint(leader, replica, 90, 200, 200)
	if !ok || at != 160 {
		t.Fatalf("DivergencePoint = (%d,%v), want (160,true)", at, ok)
	}
}

// TestClassifyReplica pins Round's reading of a follower against its
// leader: synced (idle, or a recruit promoted to full member), lagging
// (stream from its end), diverged (repair at the divergence point — or,
// under the planted defect, stream past it) and behind the retention floor
// (bootstrap at the floor).
func TestClassifyReplica(t *testing.T) {
	leader := LogState{End: 150, Spans: spans(0, 0, 100, 1)}
	for _, c := range []struct {
		name     string
		follower LogState
		syncing  bool
		repair   bool
		move     Move
		at       int64
	}{
		{"synced", LogState{End: 150, Spans: spans(0, 0, 100, 1)}, false, true, Idle, 150},
		{"synced recruit", LogState{End: 150, Spans: spans(0, 0, 100, 1)}, true, true, Synced, 150},
		{"lagging", LogState{End: 90, Spans: spans(0, 0)}, false, true, Stream, 90},
		{"lagging recruit", LogState{End: 90, Spans: spans(0, 0)}, true, true, Stream, 90},
		{"diverged", LogState{End: 130, Spans: spans(0, 0)}, false, true, Repair, 100},
		{"diverged, repair off", LogState{End: 130, Spans: spans(0, 0)}, false, false, Stream, 130},
		{"past the leader's end", LogState{End: 160, Spans: spans(0, 0, 100, 1)}, false, true, Repair, 150},
		{"behind the floor", LogState{End: 10, Spans: spans(0, 0)}, true, true, Bootstrap, 40},
	} {
		l := leader
		if c.move == Bootstrap {
			l.First = 40
		}
		r := Replicas{Members: []int{0, 1}}
		if c.syncing {
			r.Syncing = []int{1}
		}
		move, at := r.Round(1, l, c.follower, c.repair)
		if move != c.move || at != c.at {
			t.Fatalf("%s: Round = (%d, %d), want (%d, %d)", c.name, move, at, c.move, c.at)
		}
		if promoted := c.syncing && len(r.Syncing) == 0; promoted != (move == Synced) {
			t.Fatalf("%s: %v leaves Syncing %v", c.name, move, r.Syncing)
		}
	}
}

// TestReplicasAckLagKept pins the watermark: the minimum end over full
// members, never falling; the lag over full followers; and what a handoff
// kept of a batch.
func TestReplicasAckLagKept(t *testing.T) {
	ends := map[int]int64{0: 50, 1: 30, 2: 10}
	end := func(s int) int64 { return ends[s] }
	r := Replicas{Members: []int{0, 1, 2}, Syncing: []int{2}, Acked: 20, AckedAt: []int64{0}}
	if from, moved := r.Ack(end); !moved || from != 20 || r.Acked != 30 {
		t.Fatalf("Ack = (%d, %v) to %d, want (20, true) to 30: the recruit at 10 does not count", from, moved, r.Acked)
	}
	if lag := r.Lag(end); lag != 20 {
		t.Fatalf("Lag = %d, want 20 (shard 1; the recruit does not count)", lag)
	}
	ends[1] = 25 // a truncated follower never pulls the watermark back
	if from, moved := r.Ack(end); moved || from != 30 || r.Acked != 30 {
		t.Fatalf("Ack after a fall = (%d, %v) at %d, want (30, false) at 30", from, moved, r.Acked)
	}
	r.Fail(0, []int{1, 2}, 3) // handoff at watermark 30: epoch 1 installed
	if r.AckedAt[1] != 30 {
		t.Fatalf("AckedAt = %v, want [0 30]", r.AckedAt)
	}
	for _, c := range [][3]int64{{20, 40, 10}, {20, 25, 5}, {35, 40, -5}} {
		if got := r.Kept(0, c[0], c[1]); got != c[2] {
			t.Fatalf("Kept(0, %d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// TestReplicasFailExhaustive enumerates every shard failure over four
// shards: every ordered member set, every syncing subset, every live set
// that holds the survivors, every victim (members and not) and rf 1–4. It
// checks the promotion, the order the survivors keep, the recruits (live
// non-members in ring order from the new leader), the size the set ends
// at, Syncing ⊆ Members, and that the epoch and AckedAt move exactly when
// the leader died.
func TestReplicasFailExhaustive(t *testing.T) {
	const shards = 4
	var orders [][]int
	var grow func(seq []int)
	grow = func(seq []int) {
		if len(seq) > 0 {
			orders = append(orders, slices.Clone(seq))
		}
		for s := 0; s < shards; s++ {
			if !slices.Contains(seq, s) {
				grow(append(seq, s))
			}
		}
	}
	grow(nil)
	n := 0
	for _, members := range orders {
		for sync := 0; sync < 1<<len(members); sync++ {
			var syncing []int
			for i, s := range members {
				if sync&(1<<i) != 0 {
					syncing = append(syncing, s)
				}
			}
			for victim := 0; victim < shards; victim++ {
				survivors := drop(slices.Clone(members), victim)
				for mask := 0; mask < 1<<shards; mask++ {
					var live []int
					for s := 0; s < shards; s++ {
						if mask&(1<<s) != 0 {
							live = append(live, s)
						}
					}
					if slices.Contains(live, victim) || !isSubset(survivors, live) {
						continue
					}
					for rf := 1; rf <= shards; rf++ {
						n++
						checkFail(t, Replicas{Members: members, Syncing: syncing, Epoch: 1, Acked: 9, AckedAt: []int64{0, 4}}, victim, live, rf)
					}
				}
			}
		}
	}
	if n < 10000 {
		t.Fatalf("enumerated %d failures; the space has more", n)
	}
}

// checkFail runs one Fail and checks it against the rules restated
// independently.
func checkFail(t *testing.T, start Replicas, victim int, live []int, rf int) {
	t.Helper()
	r := start.clone()
	led, unclean, recruits := r.Fail(victim, live, rf)
	where := func() string {
		return fmt.Sprintf("Fail(%d, live %v, rf %d) of %+v = (%v, %v, %v) leaving %+v", victim, live, rf, start, led, unclean, recruits, r)
	}
	if !slices.Contains(start.Members, victim) {
		if led || unclean || recruits != nil || !r.equal(start) {
			t.Fatalf("%s: a non-member's loss changed something", where())
		}
		return
	}
	survivors := drop(slices.Clone(start.Members), victim)
	if led != (start.Members[0] == victim) {
		t.Fatalf("%s: led is wrong", where())
	}
	if wantEpoch := start.Epoch + btoi(led); r.Epoch != wantEpoch || len(r.AckedAt) != len(start.AckedAt)+btoi(led) ||
		led && r.AckedAt[len(r.AckedAt)-1] != start.Acked || r.Acked != start.Acked {
		t.Fatalf("%s: epoch/AckedAt/Acked moved wrongly", where())
	}
	if len(survivors) == 0 {
		if len(r.Members) != 0 || recruits != nil || unclean {
			t.Fatalf("%s: a sole holder's loss recruited or promoted", where())
		}
		return
	}
	// The leader: unchanged, or the first full survivor, or — unclean — the
	// first survivor.
	kept := survivors
	wantUnclean := false
	if led {
		nl := -1
		for _, s := range survivors {
			if !slices.Contains(start.Syncing, s) {
				nl = s
				break
			}
		}
		if nl < 0 {
			nl, wantUnclean = survivors[0], true
		}
		kept = append([]int{nl}, drop(slices.Clone(survivors), nl)...)
	}
	if unclean != wantUnclean || len(r.Members) < len(kept) || !slices.Equal(r.Members[:len(kept)], kept) {
		t.Fatalf("%s: want leader then survivors in order %v, unclean %v", where(), kept, wantUnclean)
	}
	// The recruits: live non-members, the ring rotated to start just past
	// the leader, up to min(rf, len(live)) members.
	var ring []int
	at := slices.Index(live, kept[0])
	for i := 1; i <= len(live); i++ {
		ring = append(ring, live[(at+i)%len(live)])
	}
	want := []int{}
	for _, s := range ring {
		if len(kept)+len(want) < min(rf, len(live)) && !slices.Contains(kept, s) {
			want = append(want, s)
		}
	}
	if !slices.Equal(recruits, want) || !slices.Equal(r.Members[len(kept):], want) ||
		len(r.Members) != max(len(kept), min(rf, len(live))) {
		t.Fatalf("%s: want recruits %v", where(), want)
	}
	// Syncing: the surviving recruits (less an unclean leader), then the new.
	wantSync := []int{}
	for _, s := range start.Syncing {
		if s != victim && !(wantUnclean && s == kept[0]) {
			wantSync = append(wantSync, s)
		}
	}
	if wantSync = append(wantSync, want...); !slices.Equal(r.Syncing, wantSync) || !isSubset(r.Syncing, r.Members) {
		t.Fatalf("%s: want Syncing %v ⊆ Members", where(), wantSync)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func isSubset(xs, set []int) bool {
	for _, x := range xs {
		if !slices.Contains(set, x) {
			return false
		}
	}
	return true
}

func (r *Replicas) clone() Replicas {
	return Replicas{Members: slices.Clone(r.Members), Syncing: slices.Clone(r.Syncing),
		Epoch: r.Epoch, Acked: r.Acked, AckedAt: slices.Clone(r.AckedAt)}
}

// equal compares two values field by field, a nil slice equal to an empty one.
func (r *Replicas) equal(o Replicas) bool {
	return slices.Equal(r.Members, o.Members) && slices.Equal(r.Syncing, o.Syncing) &&
		r.Epoch == o.Epoch && r.Acked == o.Acked && slices.Equal(r.AckedAt, o.AckedAt)
}
