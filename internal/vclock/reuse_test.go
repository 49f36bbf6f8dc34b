package vclock

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// This file pins what record reuse must not break. A participant keeps one
// parker for its lifetime and every Sleep, primitive wait and Compute
// rejoin re-arms it, so a stale reference — a registration left on a
// primitive after its wait returned, a link read after its record was
// handed back — no longer points at garbage but at a *live* wait, and
// would wake it. The two obligations (DESIGN.md "Participant record"):
// a record is on at most one waiter list and on none once its wait has
// returned; a signaller reads and clears a record's link before waking it.
// A record also outlives its participant: Go hands a finished participant's
// record, with its goroutine, to the next participant it spawns.
// CI runs these under -race at GOMAXPROCS=4, -count=20.

// ownRecord returns the calling participant's record (it holds the token).
func ownRecord(c *Virtual) *parker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// waitParked blocks, from outside the scheduled world, until the world's n
// participants are all parked on primitives: nobody holds the token and
// none is runnable, asleep or computing.
func waitParked(t *testing.T, c *Virtual, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		ok := c.participants == n && c.current == nil && c.runqHead == len(c.runq) &&
			len(c.sleepers) == 0 && c.computing == 0
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("world never quiesced with %d parked waiters", n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCanceledWaitThenSleepNotWokenByStaleSignal: a participant abandons an
// Event.Wait on cancellation and goes to sleep on the same record; firing
// the abandoned event — by a participant, or from outside the scheduled
// world while the world is pinned — must find no registration, so the
// sleeper wakes at exactly its deadline and reports the full sleep.
func TestCanceledWaitThenSleepNotWokenByStaleSignal(t *testing.T) {
	for _, outside := range []bool{false, true} {
		name := "fired by participant"
		if outside {
			name = "fired from outside"
		}
		t.Run(name, func(t *testing.T) {
			c := NewVirtual(Epoch)
			c.Adopt()
			defer c.Leave()
			bg := context.Background()
			ctx, cancel := context.WithCancel(bg)
			e := NewEvent(c)
			var waited, slept bool
			var wokeAt time.Duration
			done := NewGroup(c)
			done.Add(1)
			c.Go(func() {
				defer done.Done()
				waited = e.Wait(ctx)
				slept = c.Sleep(bg, time.Hour)
				wokeAt = c.Since(Epoch)
			})
			c.Sleep(bg, time.Minute) // the waiter is parked on e
			cancel()
			c.Sleep(bg, time.Minute) // the waiter is asleep until 1h1m
			if outside {
				// A Compute body runs off-token on a pinned world: a real
				// outside-world signal at a known modeled instant.
				c.Compute(bg, e.Fire)
			} else {
				e.Fire()
			}
			done.Wait()
			if waited {
				t.Error("canceled Event.Wait reported a signal")
			}
			if want := time.Hour + time.Minute; !slept || wokeAt != want {
				t.Errorf("sleeper woke at %v (full sleep: %v), want exactly %v: the abandoned event still reached the record", wokeAt, slept, want)
			}
		})
	}
}

// TestOutsideFireBetweenRegisterAndPark walks Event.Wait's own steps with
// an outside-world Fire landed in the window between linking the record
// and parking it: the record must be claimed once, never enroll in a cancel
// group, be granted once (no token left in its channel to cut the next
// sleep short) and leave the event's list empty.
func TestOutsideFireBetweenRegisterAndPark(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	for i := 0; i < 50; i++ {
		e := NewEvent(c)
		e.mu.Lock()
		r := c.newParker(bg, &e.mu)
		e.waiters.push(r)
		e.mu.Unlock()

		fired := make(chan struct{})
		go func() { e.Fire(); close(fired) }()
		<-fired

		c.mu.Lock()
		claimed := r.claimed
		c.mu.Unlock()
		if !claimed {
			t.Fatal("outside Fire did not claim the registered record")
		}
		c.park(r)
		if !c.await(r) {
			t.Fatal("wait reported a cancellation")
		}
		if r != ownRecord(c) || r.cg != nil || r.wnext != nil || e.waiters != (waitq{}) || len(r.g) != 0 {
			t.Fatalf("after the wake: own=%v cg=%v wnext=%v list=%+v pending grants=%d",
				r == ownRecord(c), r.cg, r.wnext, e.waiters, len(r.g))
		}
		start := c.Now()
		if !c.Sleep(bg, time.Second) || c.Since(start) != time.Second {
			t.Fatalf("sleep after the wake elapsed %v, want 1s: the record was granted twice", c.Since(start))
		}
	}
}

// TestOutsideSetWithWaitersThatRepark is the link-overwrite hazard: an
// outside-world Set wakes the first of three parked waiters at once, and
// that goroutine links its record into another primitive's list while Set
// is still walking this one. A woken waiter owns its record again, so it
// reads the link unlocked: it must already be clear (under -race, a Set
// that touches the link after the wake is a reported race). Each waiter
// must be woken exactly once and end up alone on its own event.
func TestOutsideSetWithWaitersThatRepark(t *testing.T) {
	const waiters = 3
	bg := context.Background()
	for round := 0; round < 100; round++ {
		c := NewVirtual(Epoch)
		n := NewNotifier(c)
		var evs [waiters]*Event
		var recs [waiters]*parker
		done := NewGroup(c)
		for i := range evs {
			i := i
			evs[i] = NewEvent(c)
			done.Add(1)
			c.Go(func() {
				defer done.Done()
				r := ownRecord(c)
				recs[i] = r
				if !n.Wait(bg) {
					t.Error("Notifier.Wait reported a cancellation")
				}
				if r.wnext != nil {
					t.Errorf("waiter %d woke with its link still set", i)
				}
				if !evs[i].Wait(bg) {
					t.Error("Event.Wait reported a cancellation")
				}
			})
		}
		waitParked(t, c, waiters)
		n.Set()
		waitParked(t, c, waiters)
		n.mu.Lock()
		if n.waiters != (waitq{}) || n.set {
			t.Errorf("round %d: notifier after Set: list %+v, latched %v", round, n.waiters, n.set)
		}
		n.mu.Unlock()
		for i, e := range evs {
			e.mu.Lock()
			if e.waiters.head != recs[i] || e.waiters.tail != recs[i] || recs[i].wnext != nil {
				t.Errorf("round %d: waiter %d is not alone on its event: %+v", round, i, e.waiters)
			}
			e.mu.Unlock()
		}
		for _, e := range evs {
			e.Fire()
		}
		done.wgWaitExternal(t)
	}
}

// TestRecordRoundTripStaysClean sends one record through every kind of
// wait — Sleep, Event.Wait, Compute, a contended Sem.Acquire, a canceled
// Notifier.Wait — and checks after each that it is the same record, with
// the same grant channel, enrolled nowhere: heap index, cancel-group links
// and waiter link all clear.
func TestRecordRoundTripStaysClean(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	r := ownRecord(c)
	g := r.g
	clean := func(step string) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.current != r || r.g != g {
			t.Fatalf("after %s: the participant changed records", step)
		}
		if r.heapIdx != -1 || r.cg != nil || r.cprev != nil || r.cnext != nil || r.wnext != nil || len(r.g) != 0 {
			t.Fatalf("after %s: heapIdx=%d cg=%v cprev=%v cnext=%v wnext=%v pending grants=%d",
				step, r.heapIdx, r.cg, r.cprev, r.cnext, r.wnext, len(r.g))
		}
	}
	e, s, n := NewEvent(c), NewSem(c, 1), NewNotifier(c)
	ctx, cancel := context.WithCancel(bg)
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() { // the peer: one signal per second, then the cancellation
		defer done.Done()
		s.Acquire(bg)
		c.Sleep(bg, 2*time.Second)
		e.Fire()
		c.Sleep(bg, time.Second)
		s.Release()
		c.Sleep(bg, time.Second)
		cancel()
	})
	if !c.Sleep(bg, time.Second) {
		t.Fatal("Sleep interrupted")
	}
	clean("Sleep")
	if !e.Wait(bg) {
		t.Fatal("Event.Wait canceled")
	}
	clean("Event.Wait")
	if !c.Compute(bg, func() {}) {
		t.Fatal("Compute refused")
	}
	clean("Compute")
	if !s.Acquire(bg) {
		t.Fatal("Sem.Acquire canceled")
	}
	clean("contended Sem.Acquire")
	if n.Wait(ctx) {
		t.Fatal("canceled Notifier.Wait reported a signal")
	}
	clean("canceled Notifier.Wait")
	if n.waiters != (waitq{}) || s.waiters != (waitq{}) || e.waiters != (waitq{}) {
		t.Fatalf("a primitive kept a registration: notifier %+v sem %+v event %+v", n.waiters, s.waiters, e.waiters)
	}
	if got := c.Since(Epoch); got != 4*time.Second {
		t.Fatalf("round trip ended at %v, want 4s", got)
	}
	done.Wait()
}

// TestSharedContextCancelDeliversBySeq: one context shared by two sleepers
// and an Event waiter, a second one held by a Notifier waiter that parked
// between them, both canceled in one juncture. The sweep reads each context
// once, yet delivers the four records in seq order, and the schedule is
// decision for decision the one the per-record sweep recorded.
func TestSharedContextCancelDeliversBySeq(t *testing.T) {
	c := NewVirtual(Epoch)
	c.StartRecorder(RecorderConfig{WindowFrom: 1, WindowTo: 1 << 20})
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	a, cancelA := context.WithCancel(bg)
	b, cancelB := context.WithCancel(bg)
	e, n := NewEvent(c), NewNotifier(c)
	var woke []string
	done := NewGroup(c)
	for _, w := range []struct {
		name string
		wait func() bool
	}{
		{"sleeper1", func() bool { return c.Sleep(a, time.Hour) }},
		{"notifier", func() bool { return n.Wait(b) }},
		{"event", func() bool { return e.Wait(a) }},
		{"sleeper2", func() bool { return c.Sleep(a, 2*time.Hour) }},
	} {
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			if w.wait() {
				t.Errorf("%s: wait reported a signal", w.name)
			}
			woke = append(woke, fmt.Sprintf("%s@%v", w.name, c.Since(Epoch)))
		})
	}
	c.Sleep(bg, time.Minute) // the four park in the order above
	cancelA()
	cancelB()
	c.Sleep(bg, time.Minute)
	var trace []modelEntry
	for _, d := range c.RecorderState().Window {
		trace = append(trace, modelEntry{d.Kind, d.Seq, d.At.Sub(Epoch)})
	}
	done.Wait()
	if got, want := fmt.Sprint(woke), "[sleeper1@1m0s notifier@1m0s event@1m0s sleeper2@1m0s]"; got != want {
		t.Errorf("woke %s, want %s", got, want)
	}
	const want = "[grant/0@0s grant/0@0s grant/0@0s grant/0@0s grant/0@0s advance/1@1m0s " +
		"cancel/2@1m0s cancel/3@1m0s cancel/4@1m0s cancel/5@1m0s grant/2@1m0s grant/3@1m0s grant/4@1m0s grant/5@1m0s advance/6@2m0s]"
	if got := fmt.Sprint(trace); got != want {
		t.Errorf("schedule\n got %s\nwant %s", got, want)
	}
}

// TestCancelOnFreshContextAllocatesNothing: a Sleep and an Event.Wait, each
// on a context never seen before and canceled by a peer, allocate nothing
// once warm — the cancel group a new Done channel needs comes off the free
// list its predecessor was retired to. The contexts are made, Done channel
// included, before the count starts.
func TestCancelOnFreshContextAllocatesNothing(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	const runs = 200
	ctxs := make([]context.Context, 2*(runs+1))
	cancels := make([]context.CancelFunc, len(ctxs))
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(bg)
		ctxs[i].Done()
	}
	stop, stopPeer := context.WithCancel(bg)
	kick, e := NewNotifier(c), NewEvent(c)
	next := 0
	peer := NewGroup(c)
	peer.Add(1)
	c.Go(func() {
		defer peer.Done()
		for kick.Wait(stop) {
			cancels[next]()
		}
	})
	c.Sleep(bg, time.Second) // the peer is parked
	allocs := testing.AllocsPerRun(runs, func() {
		kick.Set()
		if c.Sleep(ctxs[next], time.Hour) {
			t.Fatal("Sleep outlived its canceled context")
		}
		next++
		kick.Set()
		if e.Wait(ctxs[next]) {
			t.Fatal("Event.Wait outlived its canceled context")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per park/cancel cycle, want 0", allocs)
	}
	if got := c.Since(Epoch); got != time.Second {
		t.Errorf("cycles moved modeled time to %v, want 1s", got)
	}
	stopPeer()
	peer.Wait()
}

// TestParkAllocatesNothing pins the zero: in steady state no way of giving
// up the token allocates — not the waiter's side, not the signaller's —
// between an adopted goroutine and a Go-spawned peer.
func TestParkAllocatesNothing(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	ctx, cancel := context.WithCancel(bg)
	var (
		ping, pong = NewNotifier(c), NewNotifier(c)
		fire, e    = NewNotifier(c), NewEvent(c)
		swap, s    = NewNotifier(c), NewSem(c, 1)
		finish, g  = NewNotifier(c), NewGroup(c)
		peers      = NewGroup(c)
	)
	peer := func(fn func()) {
		peers.Add(1)
		c.Go(func() { defer peers.Done(); fn() })
	}
	peer(func() {
		for ping.Wait(ctx) {
			pong.Set()
		}
	})
	peer(func() {
		for fire.Wait(ctx) {
			e.Fire()
		}
	})
	peer(func() { // holds the slot whenever the driver asks for it
		s.Acquire(bg)
		for swap.Wait(ctx) {
			s.Release()
			s.Acquire(bg)
		}
	})
	peer(func() {
		for finish.Wait(ctx) {
			g.Done()
		}
	})
	c.Sleep(bg, time.Second) // every peer is parked; the Sem peer holds the slot
	body := func() {}
	cases := []struct {
		name  string
		round func()
	}{
		{"Sleep", func() { c.Sleep(bg, time.Millisecond) }},
		{"Notifier.Wait/Set", func() { ping.Set(); pong.Wait(bg) }},
		{"Event.Wait/Fire re-armed", func() { e.Reset(); fire.Set(); e.Wait(bg) }},
		{"Sem.Acquire/Release contended", func() { swap.Set(); s.Acquire(bg); s.Release() }},
		{"Group.Wait", func() { g.Add(1); finish.Set(); g.Wait() }},
		{"Compute", func() { c.Compute(bg, body) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.round); allocs != 0 {
			t.Errorf("%s: %v allocs per round, want 0", tc.name, allocs)
		}
	}
	cancel()
	peers.Wait()
}

// TestReusedRecordNotWokenByPriorParticipantsEvent: participant A waits on
// an Event and finishes while others are runnable, so participant B,
// spawned next, runs on A's record and parks it on a Notifier. Re-firing
// A's event — by a participant, or from outside the world while it is
// pinned — must find no registration and leave B parked.
func TestReusedRecordNotWokenByPriorParticipantsEvent(t *testing.T) {
	for _, outside := range []bool{false, true} {
		name := "fired by participant"
		if outside {
			name = "fired from outside"
		}
		t.Run(name, func(t *testing.T) {
			c := NewVirtual(Epoch)
			c.Adopt()
			defer c.Leave()
			bg := context.Background()
			e, n := NewEvent(c), NewNotifier(c)
			var recA, recB *parker
			var wokeAt time.Duration
			done := NewGroup(c)
			done.Add(1)
			c.Go(func() { // A
				recA = ownRecord(c)
				e.Wait(bg)
				c.Go(func() { // queued, so A's record is kept when A returns
					c.Go(func() { // B
						defer done.Done()
						recB = ownRecord(c)
						n.Wait(bg)
						wokeAt = c.Since(Epoch)
					})
				})
			})
			c.Sleep(bg, time.Minute) // A is parked on e
			e.Fire()
			c.Sleep(bg, time.Minute) // A has finished; B is parked on n
			if recB != recA {
				t.Fatal("B did not run on A's record: the test exercises no reuse")
			}
			e.Reset()
			if outside {
				c.Compute(bg, e.Fire)
			} else {
				e.Fire()
			}
			c.Sleep(bg, time.Minute)
			n.mu.Lock()
			parked := n.waiters.head == recB
			n.mu.Unlock()
			if !parked || wokeAt != 0 {
				t.Fatalf("re-firing A's event reached B (still parked: %v, woke at %v)", parked, wokeAt)
			}
			n.Set()
			done.Wait()
			if want := 3 * time.Minute; wokeAt != want {
				t.Errorf("B woke at %v, want %v", wokeAt, want)
			}
		})
	}
}

// TestIdleWorkersReleasedOnLeave: short participants spawned by an adopted
// driver finish back to back and stay as idle workers while the driver
// holds the token; the driver's Leave releases them, so the goroutine count
// settles back to where it stood before the world existed.
func TestIdleWorkersReleasedOnLeave(t *testing.T) {
	const n = 16
	before := runtime.NumGoroutine()
	c := NewVirtual(Epoch)
	c.Adopt()
	g := NewGroup(c)
	g.Add(n)
	for i := 0; i < n; i++ {
		c.Go(g.Done)
	}
	g.Wait()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != n {
		t.Fatalf("%d idle workers while the driver holds the token, want %d", idle, n)
	}
	c.Leave()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Leave, %d before the world existed: idle workers leaked", got, before)
	}
}
