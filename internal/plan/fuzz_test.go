package plan

import (
	"math"
	"slices"
	"testing"
	"time"

	"gopilot/internal/dist"
)

// fuzzOffsets bounds the offset space the divergence fuzzer works in: small
// enough that the oracle can hold one epoch per offset.
const fuzzOffsets = 64

// fuzzChain decodes one epoch-span chain from script: a span count (0..6),
// then per span a gap byte and an epoch byte. Starts are strictly
// increasing and the first may sit above zero (a recruit bootstrapped behind
// a retention floor has no history below it); epochs are unconstrained —
// the functions must not depend on them rising. Missing bytes read as zero.
func fuzzChain(script []byte) (chain []EpochSpan, rest []byte) {
	next := func() int64 {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int64(b)
	}
	start := int64(-1)
	for n := next() % 7; n > 0; n-- {
		start += 1 + next()%8
		chain = append(chain, EpochSpan{Start: start, Epoch: int(next() % 4)})
	}
	return chain, script
}

// naiveEpochs expands a chain into one epoch per offset, -1 where the chain
// does not reach (below its first span).
func naiveEpochs(chain []EpochSpan) [fuzzOffsets]int {
	var out [fuzzOffsets]int
	for o := range out {
		out[o] = -1
		for _, s := range chain {
			if s.Start <= int64(o) {
				out[o] = s.Epoch
			}
		}
	}
	return out
}

// FuzzDivergencePointMatchesNaive checks the boundary-walking chain compare
// against the definition it abbreviates: walk the shared range offset by
// offset and report the first offset whose two known epochs differ, else the
// leader's end when the replica runs past it. Replicas.Round is compared in
// full against the same walk (move, offset, and a recruit's promotion, with
// repair on and off), and Replicas.Lag against the ends.
func FuzzDivergencePointMatchesNaive(f *testing.F) {
	f.Add([]byte{2, 0, 0, 7, 1, 1, 0, 0, 0, 20, 15})             // stale suffix under the old epoch
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 10, 12})                   // replica longer than the leader
	f.Add([]byte{2, 0, 0, 5, 2, 3, 0, 0, 5, 1, 3, 2, 9, 30, 30}) // disagreement only below from
	f.Add([]byte{1, 4, 1, 2, 0, 1, 7, 2, 2, 40, 40})             // leader chain starts above the replica's
	f.Fuzz(func(t *testing.T, script []byte) {
		leader, script := fuzzChain(script)
		replica, script := fuzzChain(script)
		var tail [3]int64 // from, leaderEnd, replicaEnd
		for i := range tail {
			if i < len(script) {
				tail[i] = int64(script[i]) % fuzzOffsets
			}
		}
		from, leaderEnd, replicaEnd := tail[0], tail[1], tail[2]

		le, re := naiveEpochs(leader), naiveEpochs(replica)
		wantAt, wantOK := int64(0), false
		for o := from; o < min(leaderEnd, replicaEnd); o++ {
			if le[o] >= 0 && re[o] >= 0 && le[o] != re[o] {
				wantAt, wantOK = o, true
				break
			}
		}
		if !wantOK && replicaEnd > leaderEnd {
			wantAt, wantOK = leaderEnd, true
		}
		if at, ok := DivergencePoint(leader, replica, from, leaderEnd, replicaEnd); at != wantAt || ok != wantOK {
			t.Fatalf("DivergencePoint(%v, %v, from %d, ends %d/%d) = (%d, %v), offset walk says (%d, %v)",
				leader, replica, from, leaderEnd, replicaEnd, at, ok, wantAt, wantOK)
		}
		ls := LogState{First: from, End: leaderEnd, Spans: leader}
		fs := LogState{First: min(from, replicaEnd), End: replicaEnd, Spans: replica}
		for _, repair := range []bool{true, false} {
			for _, syncing := range []bool{false, true} {
				move, arg := Idle, replicaEnd
				switch {
				case repair && wantOK:
					move, arg = Repair, wantAt
				case replicaEnd < from:
					move, arg = Bootstrap, from
				case replicaEnd < leaderEnd:
					move, arg = Stream, replicaEnd
				case syncing:
					move = Synced
				}
				r := Replicas{Members: []int{0, 1}}
				if syncing {
					r.Syncing = []int{1}
				}
				ends := [2]int64{leaderEnd, replicaEnd}
				wantLag := max(leaderEnd-replicaEnd, 0)
				if syncing {
					wantLag = 0 // a recruit's lag is not the partition's
				}
				if lag := r.Lag(func(s int) int64 { return ends[s] }); lag != wantLag {
					t.Fatalf("Lag of ends %d/%d (syncing %v) = %d, want %d", leaderEnd, replicaEnd, syncing, lag, wantLag)
				}
				stillSyncing := syncing && move != Synced
				if got, at := r.Round(1, ls, fs, repair); got != move || at != arg || (len(r.Syncing) == 1) != stillSyncing {
					t.Fatalf("Round(%v, %v, from %d, ends %d/%d, repair %v, syncing %v) = (%d, %d) leaving Syncing %v, offset walk says (%d, %d)",
						leader, replica, from, leaderEnd, replicaEnd, repair, syncing, got, at, r.Syncing, move, arg)
				}
			}
		}
	})
}

// maskShards lists the shard ids (0..15) whose bit is set, ascending — the
// caller's canonical live order.
func maskShards(mask uint16) []int {
	var out []int
	for s := 0; s < 16; s++ {
		if mask&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// distinctWithin reports whether xs holds no repeats and only members of set.
func distinctWithin(xs, set []int) bool {
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] || !slices.Contains(set, x) {
			return false
		}
		seen[x] = true
	}
	return true
}

// FuzzShardPlacement checks the placement properties the cluster leans on,
// over shard ids 0..15: PlaceReplicas places distinct live shards of the
// clamped length; Replicas.Fail, applied to each dead member of any held
// set, reconverges it so that failing those shards again changes nothing
// (anti-flap); and losing one live shard disturbs only the replica sets
// that held it — the survivors keep their order, the leader included, and
// at most one recruit joins behind them.
func FuzzShardPlacement(f *testing.F) {
	f.Add("events", uint16(3), uint16(0b0111), uint16(0b1010), int8(2), uint8(1))
	f.Add("t", uint16(0), uint16(0b1111), uint16(0b0001), int8(3), uint8(0))
	f.Add("", uint16(65535), uint16(0b1), uint16(0), int8(-4), uint8(7))
	f.Add("blocks", uint16(9), uint16(0xffff), uint16(0xf0f0), int8(16), uint8(200))
	f.Fuzz(func(t *testing.T, topic string, partition, liveMask, heldMask uint16, replication int8, pick uint8) {
		live, r := maskShards(liveMask), int(replication)
		placed := PlaceReplicas(topic, int(partition), live, r)
		if want := min(max(r, 1), len(live)); len(placed.Members) != want || !distinctWithin(placed.Members, live) {
			t.Fatalf("PlaceReplicas(%q, %d, %v, %d) = %v, want %d distinct live shards", topic, partition, live, r, placed.Members, want)
		}

		// Anti-flap, from an arbitrary held set (dead members and all).
		held := Replicas{Members: maskShards(heldMask), AckedAt: []int64{0}}
		var dead []int
		for _, s := range held.Members {
			if !slices.Contains(live, s) {
				dead = append(dead, s)
			}
		}
		liveHeld := len(held.Members) - len(dead)
		for _, s := range dead {
			held.Fail(s, live, r)
		}
		if n := len(held.Members); !distinctWithin(held.Members, live) ||
			len(dead) > 0 && n > 0 && n != max(liveHeld, min(r, len(live))) {
			t.Fatalf("failing %v of %v (live %v, rf %d) leaves %v", dead, maskShards(heldMask), live, r, held.Members)
		}
		fixed := held.clone()
		for _, s := range dead {
			if led, unclean, again := held.Fail(s, live, r); led || unclean || again != nil || !held.equal(fixed) {
				t.Fatalf("failing %v of %v (live %v, rf %d) reconverges to %+v, where failing %d again gives %+v",
					dead, maskShards(heldMask), live, r, fixed, s, held)
			}
		}

		// One live shard lost, seen from a set placed while it was up.
		if len(live) < 2 {
			return
		}
		victim := live[int(pick)%len(live)]
		rest := slices.DeleteFunc(slices.Clone(live), func(s int) bool { return s == victim })
		before := placed.clone()
		led, unclean, recruits := placed.Fail(victim, rest, r)
		if !slices.Contains(before.Members, victim) {
			if led || unclean || recruits != nil || !placed.equal(before) {
				t.Fatalf("losing shard %d moved %+v, which never held it, to %+v", victim, before, placed)
			}
			return
		}
		survivors := slices.DeleteFunc(slices.Clone(before.Members), func(s int) bool { return s == victim })
		if len(survivors) == 0 {
			// The sole holder: Cluster.FailShard refuses this loss.
			if len(placed.Members) != 0 || recruits != nil {
				t.Fatalf("losing shard %d, the only holder in %v, left %v and recruited %v", victim, before.Members, placed.Members, recruits)
			}
			return
		}
		if unclean || led != (before.Members[0] == victim) || len(recruits) > 1 ||
			len(placed.Members) != min(len(before.Members), len(rest)) || !distinctWithin(placed.Members, rest) ||
			!slices.Equal(placed.Members[:len(survivors)], survivors) {
			t.Fatalf("losing shard %d of %v (live %v): (%v, %v, %v) gives %v, want survivors %v in order plus at most one recruit",
				victim, before.Members, live, led, unclean, recruits, placed.Members, survivors)
		}
	})
}

// FuzzBackoffDelay checks Delay over arbitrary (also absurd) shapes, after
// withDefaults: a delay is at least 1ns — eligibility moves strictly
// forward; without jitter the sequence over attempt never decreases and
// stays put once it has reached Max; with jitter every delay lies within
// [1−J, 1+J] of the un-jittered one; and the same (label, attempt sequence)
// gives the same delays.
func FuzzBackoffDelay(f *testing.F) {
	f.Add(int64(0), int64(0), 0.0, 0.0, uint8(12), uint64(7))                                    // all defaults
	f.Add(int64(time.Hour), int64(time.Minute), 1.0, 0.99, uint8(3), uint64(1))                  // Initial above Max
	f.Add(int64(1), int64(math.MaxInt64-1), math.Inf(1), 0.5, uint8(2), uint64(2))               // jitter pushes past 2⁶³
	f.Add(int64(3), int64(1)<<62+513, math.NaN(), math.NaN(), uint8(79), uint64(math.MaxUint64)) // Max no float64 holds
	f.Fuzz(func(t *testing.T, initial, max int64, factor, jitter float64, attempts uint8, label uint64) {
		b := Backoff{Initial: time.Duration(initial), Max: time.Duration(max), Factor: factor, Jitter: jitter}.withDefaults()
		plain := b
		plain.Jitter = 0
		n := int(attempts % 80)
		run := func() []time.Duration {
			st := dist.NewStream(1).SplitLabel(label)
			out := make([]time.Duration, n)
			for k := range out {
				out[k] = b.Delay(k, st)
			}
			return out
		}
		got, again := run(), run()
		if !slices.Equal(got, again) {
			t.Fatalf("%+v label %d: two runs differ:\n%v\n%v", b, label, got, again)
		}
		for k, d := range got {
			if d < 1 {
				t.Fatalf("%+v: Delay(%d) = %v, want >= 1ns", b, k, d)
			}
			if !(b.Jitter > 0) {
				if k > 0 && (d < got[k-1] || got[k-1] >= b.Max && d != got[k-1]) {
					t.Fatalf("%+v: Delay(%d) = %v after %v", b, k, d, got[k-1])
				}
				continue
			}
			u := float64(plain.Delay(k, nil))
			// The un-jittered value is truncated to a whole nanosecond and the
			// jittered one clamped into [1, MaxInt64]: allow for both.
			lo, hi := (1-b.Jitter)*u-2, (1+b.Jitter)*(u+2)
			if x := float64(d); x < lo && d != 1 || x > hi {
				t.Fatalf("%+v: Delay(%d) = %v outside [%g, %g] around %v", b, k, d, lo, hi, time.Duration(u))
			}
		}
	})
}
