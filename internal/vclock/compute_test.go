package vclock

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// hash64 is a tiny splitmix64 step: a deterministic stand-in for a stream
// draw, advanced only on the executor token.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// computeScheduleRun drives a world of `workers` participants, each
// looping `rounds` times: an off-token Compute body (burning real CPU and
// wall-sleeping a jitter drawn from jitterSeed — i.e. a *real*,
// run-varying completion order), then, back on the token, a pseudo-draw
// from its own state, an append to the shared trace, and a modeled sleep.
// The returned trace captures every token-order-visible fact: worker,
// round, draw value, and the virtual instant it was observed at.
func computeScheduleRun(t *testing.T, jitterSeed int64) []string {
	t.Helper()
	const (
		workers = 8
		rounds  = 4
	)
	rng := rand.New(rand.NewSource(jitterSeed))
	jitter := make([][]time.Duration, workers)
	for w := range jitter {
		jitter[w] = make([]time.Duration, rounds)
		for r := range jitter[w] {
			jitter[w][r] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
	}

	v := NewVirtual(Epoch)
	v.Adopt()
	defer v.Leave()
	var trace []string // appended only on the token
	wg := NewGroup(v)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			state := uint64(w + 1)
			for r := 0; r < rounds; r++ {
				before := v.Now()
				var result uint64
				ok := v.Compute(context.Background(), func() {
					time.Sleep(jitter[w][r]) // real completion jitter
					acc := uint64(0)
					for i := 0; i < 1000; i++ { // real CPU
						acc = hash64(acc + uint64(i))
					}
					result = acc
				})
				if !ok {
					t.Errorf("w%d.r%d: Compute returned false without cancellation", w, r)
					return
				}
				after := v.Now()
				if !after.Equal(before) {
					t.Errorf("w%d.r%d: virtual time moved across Compute: %v -> %v", w, r, before, after)
				}
				state = hash64(state) // the downstream "draw", on-token
				trace = append(trace, fmt.Sprintf("w%d.r%d draw=%d result=%d at=%s",
					w, r, state, result, after.Format(time.RFC3339Nano)))
				if !v.Sleep(context.Background(), time.Duration(w%3+1)*time.Millisecond) {
					t.Errorf("w%d.r%d: sleep canceled", w, r)
				}
			}
		})
	}
	wg.Wait()
	return trace
}

// TestComputeScheduleIndependentOfCompletionOrder is the compute-phase
// determinism contract: N parallel Compute bodies whose *real* completion
// order varies (randomized wall-clock jitter, a different jitter seed per
// run) must leave every token-order-visible fact — downstream draw
// sequences, virtual instants, trace order — bit-identical across 10
// runs. Join order is fixed by spawn ordinal, not by who finishes first.
func TestComputeScheduleIndependentOfCompletionOrder(t *testing.T) {
	ref := computeScheduleRun(t, 0)
	if len(ref) == 0 {
		t.Fatal("empty trace")
	}
	for seed := int64(1); seed <= 9; seed++ {
		got := computeScheduleRun(t, seed)
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Fatalf("jitter seed %d changed the schedule:\n--- ref ---\n%s\n--- got ---\n%s",
				seed, strings.Join(ref, "\n"), strings.Join(got, "\n"))
		}
	}
}

// TestComputeHoldsTimeStill pins the rule that a pending compute phase
// freezes the clock: while one participant computes, a sleeping
// participant's deadline must not be reached, however long the compute
// takes in wall time.
func TestComputeHoldsTimeStill(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Adopt()
	defer v.Leave()
	var sleeperWokeAt time.Time
	wg := NewGroup(v)
	wg.Add(2)
	v.Go(func() {
		defer wg.Done()
		v.Sleep(context.Background(), time.Microsecond) // earliest deadline in the world
		sleeperWokeAt = v.Now()
	})
	v.Go(func() {
		defer wg.Done()
		start := v.Now()
		v.Compute(context.Background(), func() { time.Sleep(2 * time.Millisecond) })
		if got := v.Now(); !got.Equal(start) {
			t.Errorf("time advanced during compute: %v -> %v", start, got)
		}
	})
	wg.Wait()
	want := Epoch.Add(time.Microsecond)
	if !sleeperWokeAt.Equal(want) {
		t.Errorf("sleeper woke at %v, want %v", sleeperWokeAt, want)
	}
}

// TestComputeCanceledContext pins the cancellation semantics: an already-
// canceled context skips the body entirely and reports false.
func TestComputeCanceledContext(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Adopt()
	defer v.Leave()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if v.Compute(ctx, func() { ran = true }) {
		t.Error("Compute returned true on canceled context")
	}
	if ran {
		t.Error("Compute ran fn despite canceled context")
	}
	// The world must still be live afterwards.
	if !v.Compute(context.Background(), func() { ran = true }) || !ran {
		t.Error("Compute after canceled attempt did not run")
	}
}

// TestComputeUnregisteredPanics pins the registration contract, matching
// Sleep and the primitives.
func TestComputeUnregisteredPanics(t *testing.T) {
	v := NewVirtual(Epoch)
	defer func() {
		if recover() == nil {
			t.Error("Compute from unregistered goroutine did not panic")
		}
	}()
	v.Compute(context.Background(), func() {})
}

// TestComputeBodiesOverlapInWallTime proves the phase delivers real
// concurrency: 8 participants each run a Compute body that blocks 40ms of
// wall time. Under the old single-runner serialization that is ≥320ms;
// with the compute phase the bodies fly together and the whole world
// finishes in a fraction of that. (Wall-sleep stands in for CPU work so
// the test also demonstrates overlap on single-core CI machines; on
// multi-core hardware the same overlap applies to CPU-bound kernels.)
func TestComputeBodiesOverlapInWallTime(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Adopt()
	defer v.Leave()
	const bodies = 8
	const each = 40 * time.Millisecond
	wg := NewGroup(v)
	start := time.Now()
	for i := 0; i < bodies; i++ {
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			v.Compute(context.Background(), func() { time.Sleep(each) })
		})
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Serial execution would take bodies×each = 320ms; allow generous
	// slack for slow CI machines while still ruling serialization out.
	if elapsed > time.Duration(bodies)*each/2 {
		t.Fatalf("8×40ms compute bodies took %v wall — they did not overlap", elapsed)
	}
}
