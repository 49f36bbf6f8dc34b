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
// participants.
func BenchmarkNotifierRoundtrip(b *testing.B) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	bg := context.Background()
	ping, pong := NewNotifier(c), NewNotifier(c)
	benchPingPong(b, c,
		func(int) { ping.Set() },
		func(int) { pong.Wait(bg) },
		func(int) { ping.Wait(bg); pong.Set() })
}
