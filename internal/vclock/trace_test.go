package vclock

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// traceWorkload runs a fixed multi-goroutine sleep pattern that exercises
// grants, advances, cancellation sweeps and marks, and returns the
// recorder snapshot taken at the end.
func traceWorkload(t *testing.T, cfg RecorderConfig) RecorderState {
	t.Helper()
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	c.StartRecorder(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := NewGroup(c)
	for i := 0; i < 4; i++ {
		i := i
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			for round := 0; round < 8; round++ {
				c.Sleep(ctx, time.Duration(i+1)*time.Millisecond)
				c.Mark("round", uint64(i*8+round))
			}
		})
	}
	// One sleeper that dies to the cancellation sweep.
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		c.Sleep(ctx, time.Hour)
	})
	c.Sleep(context.Background(), 50*time.Millisecond)
	cancel()
	done.Wait()
	return c.RecorderState()
}

// Same workload, same decisions: the trace hash, checkpoint vector, ring
// and decision count are bit-identical across runs — the property that
// lets a reproducing seed be compared checkpoint-by-checkpoint.
func TestRecorderDeterministic(t *testing.T) {
	cfg := RecorderConfig{Ring: 32, Stride: 16}
	base := traceWorkload(t, cfg)
	if base.Decisions == 0 {
		t.Fatal("recorder captured nothing")
	}
	if len(base.Checkpoints) != int(base.Decisions/cfg.Stride) {
		t.Fatalf("%d checkpoints for %d decisions at stride %d",
			len(base.Checkpoints), base.Decisions, cfg.Stride)
	}
	for run := 1; run <= 3; run++ {
		got := traceWorkload(t, cfg)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d: recorder state diverged:\n base %+v\n got  %+v", run, base, got)
		}
	}
}

// The ring keeps exactly the last Ring decisions, oldest first, with
// contiguous ordinals ending at the total decision count.
func TestRecorderRingWraps(t *testing.T) {
	s := traceWorkload(t, RecorderConfig{Ring: 8, Stride: 1 << 20})
	if s.Decisions <= 8 {
		t.Fatalf("workload made only %d decisions; ring cannot have wrapped", s.Decisions)
	}
	if len(s.Ring) != 8 {
		t.Fatalf("ring holds %d entries, want 8", len(s.Ring))
	}
	for i, e := range s.Ring {
		if want := s.Decisions - 8 + uint64(i) + 1; e.N != want {
			t.Fatalf("ring[%d].N = %d, want %d (oldest-first contiguous)", i, e.N, want)
		}
	}
}

// An exact-capture window [from, to) holds precisely those ordinals — the
// mechanism chaosreplay uses to zoom in on a divergent checkpoint block.
func TestRecorderWindowCapture(t *testing.T) {
	s := traceWorkload(t, RecorderConfig{WindowFrom: 5, WindowTo: 12})
	if len(s.Window) != 7 {
		t.Fatalf("window holds %d entries, want 7", len(s.Window))
	}
	for i, e := range s.Window {
		if e.N != uint64(5+i) {
			t.Fatalf("window[%d].N = %d, want %d", i, e.N, 5+i)
		}
	}
	// Both-zero disables the window entirely.
	if s2 := traceWorkload(t, RecorderConfig{}); len(s2.Window) != 0 {
		t.Fatalf("disabled window captured %d entries", len(s2.Window))
	}
}

// Marks enter the decision stream: note and seq are preserved, they
// perturb the hash, and Mark is a no-op when recording is off.
func TestRecorderMark(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	c.Mark("before start", 1) // off: must not panic or count
	c.StartRecorder(RecorderConfig{})
	c.Mark("bind", 42)
	s := c.RecorderState()
	if s.Decisions != 1 || len(s.Ring) != 1 {
		t.Fatalf("mark not recorded: %+v", s)
	}
	if e := s.Ring[0]; e.Kind != TraceMark || e.Note != "bind" || e.Seq != 42 {
		t.Fatalf("mark entry mangled: %+v", e)
	}
	noMark := c.RecorderState().Hash
	c.Mark("bind2", 43)
	if c.RecorderState().Hash == noMark {
		t.Fatal("mark did not perturb the hash chain")
	}
}

// Recording is off by default: RecorderState is zero-valued and a Mark
// leaves nothing behind.
func TestRecorderOffByDefault(t *testing.T) {
	c := NewVirtual(Epoch)
	c.Adopt()
	defer c.Leave()
	c.Mark("x", 1)
	if s := c.RecorderState(); !reflect.DeepEqual(s, RecorderState{}) {
		t.Fatalf("recorder on by default: %+v", s)
	}
}
