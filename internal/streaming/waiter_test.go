package streaming

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// A park that registers on several lists is woken by one and leaves dead
// registrations on the rest. When every park minted its own event, dead
// meant fired, for good. A re-armed wait object un-fires — so without the
// arming stamp the leftovers come back to life, and the next fire of their
// list wakes a later, unrelated park: an extra grant, a different schedule.

// TestStaleRegistrationNeverWakesLaterWait: register one arming on three
// lists, be woken through the first, re-arm, park on a fourth. The
// leftovers are dead the moment the waiter re-arms, the next registration
// on their list prunes them, and firing them wakes nobody — the second
// park ends when its own list fires, not a second earlier.
func TestStaleRegistrationNeverWakesLaterWait(t *testing.T) {
	clock := vclocktest.Adopted(t)
	ctx := context.Background()
	var ws, other waitSlot
	var woke, stale, pruned, fresh []waitReg

	w := ws.arm(clock)
	registerEvent(&woke, w)
	registerEvent(&stale, w)
	registerEvent(&pruned, w)
	peer := vclock.NewGroup(clock)
	peer.Add(1)
	clock.Go(func() {
		defer peer.Done()
		clock.Sleep(ctx, time.Second)
		fireList(&woke)
		clock.Sleep(ctx, time.Second)
		fireList(&stale) // t=2s: the leftover of the first park
		clock.Sleep(ctx, time.Second)
		fireList(&fresh) // t=3s: the second park's own list
	})
	if !w.Wait(ctx) || clock.Since(vclock.Epoch) != time.Second {
		t.Fatalf("first park ended at %v, want 1s", clock.Since(vclock.Epoch))
	}
	if len(woke) != 0 || cap(woke) == 0 {
		t.Errorf("fired list: len %d cap %d, want emptied with its array kept", len(woke), cap(woke))
	}

	if ws.arm(clock) != w {
		t.Fatal("re-arming replaced the wait object")
	}
	if stale[0].live() || pruned[0].live() {
		t.Error("re-arming revived a registration of the earlier arming")
	}
	registerEvent(&pruned, other.arm(clock))
	if len(pruned) != 1 || pruned[0].w != other.w {
		t.Errorf("registerEvent kept the stale registration: %d entries", len(pruned))
	}
	registerEvent(&fresh, w)
	if !w.Wait(ctx) {
		t.Fatal("second park canceled")
	}
	if got := clock.Since(vclock.Epoch); got != 3*time.Second {
		t.Errorf("second park ended at %v, want 3s: a registration of the first arming woke it", got)
	}
	peer.Wait()
}

// TestRunnerParkDataThenParkCtrlIgnoresLeaderAppend is the same hazard in
// the shape the catch-up runner has it: parked for data (registered on the
// leader's data waiters and on ctrl), woken by a control change, parked
// again on ctrl alone with the same wait object — a leader append then
// fires the data list, where the first park's registration still sits, and
// must not wake the runner.
func TestRunnerParkDataThenParkCtrlIgnoresLeaderAppend(t *testing.T) {
	clock := vclocktest.Adopted(t)
	ctx := context.Background()
	c := NewCluster(ClusterConfig{Shards: 1, Replication: 1, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	lp := replicaLog(c, "t", 0, 0)
	at := func(d time.Duration) { // sleep to the absolute modeled instant d
		t.Helper()
		if !clock.Sleep(ctx, d-clock.Since(vclock.Epoch)) {
			t.Fatal("driver sleep interrupted")
		}
	}
	var dataWoke, ctrlWoke time.Duration
	runner := vclock.NewGroup(clock)
	runner.Add(1)
	clock.Go(func() { // a stand-in runner with the runner's one wait object
		defer runner.Done()
		var ws waitSlot
		c.mu.Lock()
		if !c.park(ctx, ws.arm(clock), &lp.waiters, &c.ctrl) {
			t.Error("the data park was canceled")
		}
		dataWoke = clock.Since(vclock.Epoch)
		c.mu.Lock()
		if !c.park(ctx, ws.arm(clock), &c.ctrl) {
			t.Error("the control park was canceled")
		}
		ctrlWoke = clock.Since(vclock.Epoch)
	})
	at(1 * time.Second)
	if err := c.SetPartitionDown("t", 0, false); err != nil { // any control change fires ctrl
		t.Fatal(err)
	}
	at(2 * time.Second)
	if err := c.PublishValues(ctx, "t", [][]byte{make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	at(5 * time.Second)
	if err := c.SetPartitionDown("t", 0, false); err != nil {
		t.Fatal(err)
	}
	runner.Wait()
	if dataWoke != 1*time.Second {
		t.Errorf("the data park woke at %v, want 1s (the control change)", dataWoke)
	}
	if ctrlWoke != 5*time.Second {
		t.Errorf("the control park woke at %v, want 5s (the next control change): the leader append at 2s reached the first park's registration", ctrlWoke)
	}
}
