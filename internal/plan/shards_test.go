package plan

import (
	"reflect"
	"slices"
	"testing"
)

func TestShardReplicasDeterministicAndClamped(t *testing.T) {
	live := []int{0, 1, 2}
	ref := ShardReplicas("events", 3, live, 2)
	if len(ref) != 2 {
		t.Fatalf("want 2 replicas, got %v", ref)
	}
	if ref[0] == ref[1] {
		t.Fatalf("replica set repeats a shard: %v", ref)
	}
	for i := 0; i < 100; i++ {
		if got := ShardReplicas("events", 3, live, 2); !reflect.DeepEqual(got, ref) {
			t.Fatalf("placement not deterministic: %v vs %v", got, ref)
		}
	}
	// Replication above the live count clamps to every live shard.
	if got := ShardReplicas("events", 0, live, 7); len(got) != len(live) {
		t.Fatalf("want clamp to %d live shards, got %v", len(live), got)
	}
	if got := ShardReplicas("events", 0, nil, 2); got != nil {
		t.Fatalf("want nil placement with no live shards, got %v", got)
	}
}

func TestShardReplicasSpreadsPartitions(t *testing.T) {
	// Consecutive partitions of one topic rotate leaders around the ring:
	// over len(live) consecutive partitions every shard leads exactly once.
	live := []int{0, 1, 2}
	leaders := make(map[int]int)
	for q := 0; q < len(live); q++ {
		leaders[ShardReplicas("events", q, live, 2)[0]]++
	}
	for _, s := range live {
		if leaders[s] != 1 {
			t.Fatalf("leader spread uneven: %v", leaders)
		}
	}
}

// TestRecruitShard pins Fail's recruitment walk: from just past the
// leader in live-ring order, skipping members, wrapping at the ring's end,
// and stopping when every live shard already holds a copy.
func TestRecruitShard(t *testing.T) {
	live := []int{0, 1, 2, 3}
	for _, c := range []struct {
		name    string
		members []int
		dead    int
		live    []int
		want    []int
	}{
		{"past the leader", []int{1, 2, 4}, 4, live, []int{3}},
		{"wraps the ring end", []int{3, 0, 4}, 4, live, []int{1}},
		{"saturated ring", []int{0, 1, 2}, 2, []int{0, 1}, nil},
	} {
		r := Replicas{Members: c.members, AckedAt: []int64{0}}
		if _, _, got := r.Fail(c.dead, c.live, 3); !slices.Equal(got, c.want) {
			t.Fatalf("%s: Fail(%d) of %v over %v recruits %v, want %v", c.name, c.dead, c.members, c.live, got, c.want)
		}
	}
	r := Replicas{Members: []int{2, 5}, AckedAt: []int64{0}}
	if _, _, got := r.Fail(5, live, 4); !slices.Equal(got, []int{3, 0, 1}) || !slices.Equal(r.Syncing, got) {
		t.Fatalf("Fail(5) of {2,5} at rf 4 recruits %v (syncing %v), want [3 0 1] syncing", got, r.Syncing)
	}
}

// TestDetectShardDriftOrdersCorrections pins the order of Fail's
// corrections: the dead shard leaves (and, if it led, the first full
// survivor is promoted), then recruits join at the tail; a sole holder's
// loss leaves nothing to reconverge.
func TestDetectShardDriftOrdersCorrections(t *testing.T) {
	r := Replicas{Members: []int{1, 2}, Acked: 7, AckedAt: []int64{0}}
	led, unclean, recruits := r.Fail(1, []int{0, 2, 3}, 2)
	want := Replicas{Members: []int{2, 3}, Syncing: []int{3}, Epoch: 1, Acked: 7, AckedAt: []int64{0, 7}}
	if !led || unclean || !slices.Equal(recruits, []int{3}) || !r.equal(want) {
		t.Fatalf("Fail(1) = (%v, %v, %v) leaving %+v, want (true, false, [3]) leaving %+v", led, unclean, recruits, r, want)
	}
	// No live copy left: nothing to promote, nothing to recruit.
	r = Replicas{Members: []int{1}, AckedAt: []int64{0}}
	if _, _, recruits := r.Fail(1, []int{0, 2}, 2); len(r.Members) != 0 || recruits != nil {
		t.Fatalf("sole holder lost: members %v, recruits %v, want none", r.Members, recruits)
	}
}

// TestDetectShardDriftAntiFlap pins that Fail converges in one step:
// failing the same shard again — no longer a member — changes nothing and
// recruits nothing, across a sweep of replica sets and live sets.
func TestDetectShardDriftAntiFlap(t *testing.T) {
	cases := []struct {
		members, live []int
		dead, rf      int
	}{
		{[]int{0, 1}, []int{0, 2}, 1, 2},
		{[]int{0, 1}, []int{1, 2}, 0, 2},
		{[]int{2, 4}, []int{0, 1, 2, 3}, 4, 3},
		{[]int{1, 2}, []int{2}, 1, 2},
		{[]int{3, 1, 5}, []int{0, 1, 2, 3, 4}, 5, 4},
	}
	for _, c := range cases {
		r := Replicas{Members: slices.Clone(c.members), AckedAt: []int64{0}}
		r.Fail(c.dead, c.live, c.rf)
		before := r.clone()
		if led, unclean, again := r.Fail(c.dead, c.live, c.rf); led || unclean || again != nil || !r.equal(before) {
			t.Fatalf("%+v: a second Fail moved %+v to %+v (recruits %v)", c, before, r, again)
		}
	}
}
