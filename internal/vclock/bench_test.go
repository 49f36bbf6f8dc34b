package vclock

import (
	"context"
	"testing"
	"time"
)

// The layer's own numbers (ROADMAP aim 1): what one way of giving up the
// token costs, in time and in allocations, measured where the code lives
// rather than only as rungs of cmd/bench's ladder.

// BenchmarkSleepAdvance: one modeled sleep by a lone participant — arm the
// record, push and pop the sleeper heap, advance time, grant.
func BenchmarkSleepAdvance(b *testing.B) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sleep(bg, time.Microsecond)
	}
}

// BenchmarkSweepSharedContexts: one advance by a lone runnable participant
// past 256 sleepers whose contexts are 16 live ones — the juncture's
// cancellation sweep reads each of the 16 Done channels once, where a
// per-record sweep polled all 256.
func BenchmarkSweepSharedContexts(b *testing.B) {
	const sleepers, contexts = 256, 16
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	ctxs := make([]context.Context, contexts)
	cancels := make([]context.CancelFunc, contexts)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(bg)
	}
	asleep := NewGroup(c)
	for i := 0; i < sleepers; i++ {
		asleep.Add(1)
		c.Go(func() {
			defer asleep.Done()
			c.Sleep(ctxs[i%contexts], 24*365*time.Hour)
		})
	}
	c.Sleep(bg, time.Microsecond) // every sleeper is on the heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sleep(bg, time.Microsecond)
	}
	b.StopTimer()
	for _, cancel := range cancels {
		cancel()
	}
	asleep.Wait()
}

// BenchmarkSweepScopedContexts: one advance by a lone runnable participant
// past 128 waiters parked each on its own context under one parent — the
// HTC glidein shape. "scope" mints them with Virtual.WithCancel, so the
// sweep reads the parent's Done alone; "standard" mints them with
// context.WithCancel, and the sweep reads all 128.
func BenchmarkSweepScopedContexts(b *testing.B) {
	const waiters = 128
	for _, scoped := range []bool{true, false} {
		name := "standard"
		if scoped {
			name = "scope"
		}
		b.Run(name, func(b *testing.B) {
			c := NewVirtual(Epoch)
			c.Adopt()
			defer c.Leave()
			bg := context.Background()
			parent, cancelParent := context.WithCancel(bg)
			e := NewEvent(c)
			parked := NewGroup(c)
			for i := 0; i < waiters; i++ {
				mint := context.WithCancel
				if scoped {
					mint = c.WithCancel
				}
				ctx, cancel := mint(parent)
				parked.Add(1)
				c.Go(func() {
					defer parked.Done()
					defer cancel()
					e.Wait(ctx)
				})
			}
			c.Sleep(bg, time.Microsecond) // every waiter is parked
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Sleep(bg, time.Microsecond)
			}
			b.StopTimer()
			cancelParent()
			parked.Wait()
		})
	}
}

// benchPingPong times b.N round trips between the adopted driver (kick,
// then wait) and a Go-spawned peer: two park/wake pairs per round trip.
func benchPingPong(b *testing.B, c *Virtual, kick, wait, peer func(i int)) {
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		for i := 0; i < b.N; i++ {
			peer(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kick(i)
		wait(i)
	}
	b.StopTimer()
	done.Wait()
}

// BenchmarkEventParkWake: an Event.Wait woken by a Fire, each way. "fresh"
// parks on an event made for that park (made before the timer starts) —
// what every streaming park did before wait objects re-armed; "rearmed"
// Resets one event per side.
func BenchmarkEventParkWake(b *testing.B) {
	bg := context.Background()
	b.Run("fresh", func(b *testing.B) {
		c := NewVirtual(Epoch)
		c.Adopt()
		defer c.Leave()
		ping, pong := make([]*Event, b.N), make([]*Event, b.N)
		for i := range ping {
			ping[i], pong[i] = NewEvent(c), NewEvent(c)
		}
		benchPingPong(b, c,
			func(i int) { ping[i].Fire() },
			func(i int) { pong[i].Wait(bg) },
			func(i int) { ping[i].Wait(bg); pong[i].Fire() })
	})
	b.Run("rearmed", func(b *testing.B) {
		c := NewVirtual(Epoch)
		c.Adopt()
		defer c.Leave()
		ping, pong := NewEvent(c), NewEvent(c)
		benchPingPong(b, c,
			func(int) { ping.Fire() },
			func(int) { pong.Wait(bg); pong.Reset() },
			func(int) { ping.Wait(bg); ping.Reset(); pong.Fire() })
	})
}

// BenchmarkNotifierRoundtrip: Set → Wait → Set → Wait between two
// participants, both parked on context.Background() ("background") or on
// one live context.WithCancel ("cancelable"). A park is one receive on the
// record's grant channel whatever its context, so the two read alike; a
// gap means a cancelable park pays for watching its Done again.
func BenchmarkNotifierRoundtrip(b *testing.B) {
	for _, cancelable := range []bool{false, true} {
		name := "background"
		if cancelable {
			name = "cancelable"
		}
		b.Run(name, func(b *testing.B) {
			c := NewVirtual(Epoch)
			c.Adopt()
			defer c.Leave()
			ctx := context.Background()
			if cancelable {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			ping, pong := NewNotifier(c), NewNotifier(c)
			benchPingPong(b, c,
				func(int) { ping.Set() },
				func(int) { pong.Wait(ctx) },
				func(int) { ping.Wait(ctx); pong.Set() })
		})
	}
}

// BenchmarkGoChurn: the driver spawns one participant at a time and waits
// for it; the participant allocates below a 4 KB frame and exits — a unit
// attempt's shape. A fresh goroutine grows its 2 KB starting stack on every
// spawn; an idle worker reuses a stack that has already grown.
func BenchmarkGoChurn(b *testing.B) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	done := NewGroup(c)
	body := func() {
		churnSink = deepFrame(len(churnSink))
		done.Done()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done.Add(1)
		c.Go(body)
		done.Wait()
	}
}

var churnSink []byte

// deepFrame allocates from under a 4 KB stack frame.
//
//go:noinline
func deepFrame(n int) []byte {
	var frame [4096]byte
	frame[n%len(frame)] = byte(n)
	return make([]byte, 16+int(frame[n%len(frame)]%16))
}
