package streaming

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gopilot/internal/vclock"
)

// The Bus contract, run against both ends of the deployment range: one
// script, one shard at replication 1 and three at replication 3, identical
// observable results. What may differ between them is when things happen
// (the quorum wait, the handoff fence) — never what a producer or consumer
// is handed.

// busDeployment is one cluster shape the script runs on.
type busDeployment struct {
	name       string
	shards, rf int
}

const (
	busSegSize  = 4
	busInflight = 256
)

var busDeployments = []busDeployment{
	{"cluster-1x1", 1, 1},
	{"cluster-3x3", 3, 3},
}

// keyFor returns a key that hashes to partition p of n.
func keyFor(p, n int) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("k%d", i)); partitionOf(k, n) == p {
			return k
		}
	}
}

// describe renders what a producer or consumer can observe of a batch:
// coordinates and payload, never instants.
func describe(msgs []Message) string {
	var sb strings.Builder
	for _, m := range msgs {
		fmt.Fprintf(&sb, " %s[%d]@%d=%s:%s", m.Topic, m.Partition, m.Offset, m.Key, m.Value)
	}
	return sb.String()
}

// runBusScript drives one deployment through the contract and returns
// the transcript of everything observed.
func runBusScript(t *testing.T, d busDeployment) []string {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{Shards: d.shards, Replication: d.rf, SegmentSize: busSegSize,
		MaxInflightBytes: busInflight, AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer c.Close()
	var bus Bus = c
	ctx := context.Background()
	var log []string
	note := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}

	// Placement: keys hash to their partition; key-less messages walk the
	// topic's round-robin cursor, which keyed ones do not advance.
	must(bus.CreateTopic("place", 3))
	var keyed [][2][]byte
	for i, p := range []int{2, 0, 2, 1, 0, 2} {
		keyed = append(keyed, [2][]byte{keyFor(p, 3), {byte('a' + i)}})
	}
	msgs, err := bus.PublishBatch(ctx, "place", keyed)
	must(err)
	note("keyed:%s", describe(msgs))
	must(bus.PublishValues(ctx, "place", [][]byte{{'1'}, {'2'}, {'3'}, {'4'}, {'5'}, {'6'}, {'7'}}))
	one, err := bus.Publish(ctx, "place", nil, []byte{'8'})
	must(err)
	note("key-less:%s", describe([]Message{one}))
	for p := 0; p < 3; p++ {
		end, err := bus.EndOffset("place", p)
		must(err)
		got, err := bus.Fetch(ctx, "place", p, 0, 64)
		must(err)
		note("place[%d] end %d:%s", p, end, describe(got))
	}

	// A fetch never crosses a segment boundary; a commit clamps to the end;
	// a fetch below the retention floor is a typed error naming the floor.
	must(bus.CreateTopic("seg", 1))
	var ten [][2][]byte
	for i := 0; i < 10; i++ {
		ten = append(ten, [2][]byte{nil, {byte('0' + i)}})
	}
	_, err = bus.PublishBatch(ctx, "seg", ten)
	must(err)
	for o := int64(2); o < 10; {
		got, err := bus.Fetch(ctx, "seg", 0, o, 8)
		must(err)
		note("seg fetch(%d, max 8):%s", o, describe(got))
		o += int64(len(got))
	}
	must(bus.Commit("seg", 0, 1000))
	committed, err := bus.Committed("seg", 0)
	must(err)
	note("seg committed %d after Commit(1000)", committed)
	c.Offsets().Save("conformance", "seg", 0, 10) // retention trims when a group's cursor is persisted
	_, err = bus.Fetch(ctx, "seg", 0, 3, 8)
	var oor *OffsetOutOfRangeError
	if !errors.As(err, &oor) || !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("%s: fetch below the floor returned %v, want *OffsetOutOfRangeError", d.name, err)
	}
	note("seg fetch(3) below the floor: %v (oldest %d)", err, oor.Oldest)

	// An injected blackout parks a fetch of data that is there and leaves
	// producers alone; lifting it delivers at the lifting instant.
	must(bus.CreateTopic("dark", 1))
	must(bus.PublishValues(ctx, "dark", [][]byte{{'x'}, {'y'}}))
	must(c.SetPartitionDown("dark", 0, true))
	var dark []Message
	var darkErr error
	var darkAt time.Time
	darkDone := vclock.NewEvent(clock)
	clock.Go(func() {
		defer darkDone.Fire()
		dark, darkErr = bus.Fetch(ctx, "dark", 0, 0, 8)
		darkAt = clock.Now()
	})
	clock.Sleep(ctx, time.Second)
	if darkDone.Fired() {
		t.Fatalf("%s: fetch of a blacked-out partition returned (%v, %v) instead of parking", d.name, dark, darkErr)
	}
	must(bus.PublishValues(ctx, "dark", [][]byte{{'z'}}))
	lifted := clock.Now()
	must(c.SetPartitionDown("dark", 0, false))
	darkDone.Wait(ctx)
	must(darkErr)
	note("blackout lifted, fetch delivered %v later:%s", darkAt.Sub(lifted), describe(dark))
	if !darkAt.Equal(lifted) || len(dark) != 3 {
		t.Fatalf("%s: fetch delivered %d messages %v after the blackout lifted, want all 3 at that instant", d.name, len(dark), darkAt.Sub(lifted))
	}

	// A skewed commit is in flight for the delay and lands late: the mark
	// has not moved halfway through, and has when Commit returns.
	c.SetCommitDelay(500 * time.Millisecond)
	var skewErr error
	skewDone := vclock.NewEvent(clock)
	t0 := clock.Now()
	clock.Go(func() {
		defer skewDone.Fire()
		skewErr = bus.Commit("dark", 0, 2)
	})
	clock.Sleep(ctx, 250*time.Millisecond)
	midway, err := bus.Committed("dark", 0)
	must(err)
	skewDone.Wait(ctx)
	must(skewErr)
	committed, err = bus.Committed("dark", 0)
	must(err)
	note("skewed commit: mark %d midway, %d after %v", midway, committed, clock.Now().Sub(t0))
	if midway != 0 || committed != 2 || clock.Now().Sub(t0) != 500*time.Millisecond {
		t.Fatalf("%s: skewed commit read mark %d midway and %d after %v, want 0, then 2 after exactly 500ms", d.name, midway, committed, clock.Now().Sub(t0))
	}
	c.SetCommitDelay(0)

	// A publish cancelled mid-batch returns exactly the messages appended:
	// partition 1 is full, so the batch's partition-0 half lands and the
	// rest parks on backpressure until a second participant cancels.
	must(bus.CreateTopic("bp", 2))
	k0, k1 := keyFor(0, 2), keyFor(1, 2)
	_, err = bus.Publish(ctx, "bp", k1, make([]byte, busInflight))
	must(err)
	cctx, cancel := context.WithCancel(ctx)
	t0 = clock.Now()
	clock.Go(func() {
		clock.Sleep(ctx, time.Second)
		cancel()
	})
	msgs, err = bus.PublishBatch(cctx, "bp", [][2][]byte{{k0, {'a'}}, {k1, {'b'}}, {k0, {'c'}}, {k1, {'d'}}})
	note("cancelled publish after %v: %v, %d returned:%s", clock.Now().Sub(t0), err, len(msgs), describe(msgs))
	if !errors.Is(err, context.Canceled) || len(msgs) != 2 {
		t.Fatalf("%s: cancelled publish returned %d messages and %v, want the 2 appended and context.Canceled:%s",
			d.name, len(msgs), err, describe(msgs))
	}
	for _, m := range msgs {
		if m.Topic != "bp" || m.Partition != 0 {
			t.Fatalf("%s: cancelled publish returned a message it did not append: %+v", d.name, m)
		}
	}

	// Close wakes a parked fetch and a back-pressured publish alike.
	var fetchErr, pubErr error
	fetchDone, pubDone := vclock.NewEvent(clock), vclock.NewEvent(clock)
	clock.Go(func() {
		defer fetchDone.Fire()
		_, fetchErr = bus.Fetch(ctx, "bp", 0, 2, 8)
	})

	clock.Go(func() {
		defer pubDone.Fire()
		_, pubErr = bus.Publish(ctx, "bp", k1, []byte{'e'})
	})
	clock.Sleep(ctx, time.Second)
	if fetchDone.Fired() || pubDone.Fired() {
		t.Fatalf("%s: fetch at the end (%v) or publish to a full partition (%v) did not park", d.name, fetchErr, pubErr)
	}
	bus.Close()
	if !fetchDone.Wait(ctx) || !pubDone.Wait(ctx) {
		t.Fatalf("%s: Close left a caller parked", d.name)
	}
	note("after Close: fetch %v, publish %v", fetchErr, pubErr)
	if !errors.Is(fetchErr, ErrBrokerClosed) || !errors.Is(pubErr, ErrBrokerClosed) {
		t.Fatalf("%s: Close woke fetch with %v and publish with %v, want ErrBrokerClosed", d.name, fetchErr, pubErr)
	}
	return log
}

// TestBusConformance runs the script on every deployment and requires
// the transcripts to agree line for line.
func TestBusConformance(t *testing.T) {
	var want []string
	for i, d := range busDeployments {
		got := runBusScript(t, d)
		if i == 0 {
			want = got
			for _, line := range want {
				t.Log(line)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s observed %d steps, %s %d", d.name, len(got), busDeployments[0].name, len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("%s diverges from %s:\n  %s\n  %s", d.name, busDeployments[0].name, got[j], want[j])
			}
		}
	}
}
