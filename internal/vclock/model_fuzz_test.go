package vclock

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	modelProgs = 4  // distinct programs
	modelOps   = 64 // ops decoded at most, over all programs
)

// decodeModelProgram turns fuzz bytes into programs: byte 0 picks how many,
// then each (op, arg) pair appends op kind op&7 to program (op>>3)%n.
func decodeModelProgram(data []byte) [][]modelOp {
	if len(data) == 0 {
		return [][]modelOp{nil}
	}
	progs := make([][]modelOp, 1+int(data[0])%modelProgs)
	for i := 1; i+1 < len(data) && i < 2*modelOps; i += 2 {
		op, arg := int(data[i]), int(data[i+1])
		o := modelOp{kind: op & 7}
		switch o.kind {
		case opSleep:
			o.a, o.b = arg%4, (arg>>2)%(modelCtxs+1)
		case opGo:
			o.a = arg % len(progs)
		case opEventWait, opNotifierWait:
			o.a, o.b = arg%modelPrims, (arg>>1)%(modelCtxs+1)
		case opEventFire, opEventReset, opNotifierSet:
			o.a = arg % modelPrims
		case opCancel:
			o.a = arg % modelCtxs
		}
		p := (op >> 3) % len(progs)
		progs[p] = append(progs[p], o)
	}
	return progs
}

// realRun interprets a model program on a real Virtual: one goroutine per
// participant, every op the primitive it names.
type realRun struct {
	c       *Virtual
	progs   [][]modelOp
	ctxs    [modelCtxs + 1]context.Context
	cancels [modelCtxs]context.CancelFunc
	evs     [modelPrims]*Event
	ns      [modelPrims]*Notifier
	spawned int // read and written on-token only
	abort   atomic.Bool
	exited  sync.WaitGroup
}

func (r *realRun) spawn(prog int) {
	r.spawned++
	r.exited.Add(1)
	r.c.Go(func() {
		defer r.exited.Done()
		for _, op := range r.progs[prog] {
			if r.abort.Load() {
				return
			}
			switch op.kind {
			case opSleep:
				r.c.Sleep(r.ctxs[op.b], time.Duration(op.a)*time.Second)
			case opGo:
				if r.spawned < modelSpawns {
					r.spawn(op.a)
				}
			case opEventWait:
				r.evs[op.a].Wait(r.ctxs[op.b])
			case opEventFire:
				r.evs[op.a].Fire()
			case opEventReset:
				r.evs[op.a].Reset()
			case opNotifierWait:
				r.ns[op.a].Wait(r.ctxs[op.b])
			case opNotifierSet:
				r.ns[op.a].Set()
			case opCancel:
				r.cancels[op.a]()
			}
		}
	})
}

// runReal runs progs to the end or to a stall, snapshots the recorder's
// full trace, Now and Stalls, then tears the world down from outside.
func runReal(t *testing.T, progs [][]modelOp) (trace []modelEntry, now time.Duration, stalls uint64) {
	r := &realRun{c: NewVirtual(Epoch), progs: progs}
	r.c.StartRecorder(RecorderConfig{WindowFrom: 1, WindowTo: 1 << 62})
	for i := range r.cancels {
		r.ctxs[i], r.cancels[i] = context.WithCancel(context.Background())
	}
	r.ctxs[modelCtxs] = context.Background()
	for i := range r.evs {
		r.evs[i], r.ns[i] = NewEvent(r.c), NewNotifier(r.c)
	}
	r.spawn(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.c.mu.Lock()
		idle := r.c.current == nil && r.c.runqHead == len(r.c.runq) && len(r.c.sleepers) == 0
		r.c.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the world never finished or stalled")
		}
		runtime.Gosched()
	}
	for _, e := range r.c.RecorderState().Window {
		trace = append(trace, modelEntry{e.Kind, e.Seq, e.At.Sub(Epoch)})
	}
	now, stalls = r.c.Since(Epoch), r.c.Stalls()

	r.abort.Store(true)
	exited := make(chan struct{})
	go func() { r.exited.Wait(); close(exited) }()
	for {
		for _, cancel := range r.cancels {
			cancel()
		}
		for i := range r.evs {
			r.evs[i].Fire()
			r.ns[i].Set()
		}
		select {
		case <-exited:
			return trace, now, stalls
		case <-time.After(time.Millisecond):
		}
	}
}

// FuzzVirtualMatchesModel runs each decoded program on the reference model
// and on a real Virtual at GOMAXPROCS 1 and 2, and requires the same
// decisions (kind, seq, instant), the same final Now and the same Stalls.
// Its corpus (testdata/fuzz) holds contexts shared by sleepers and waiters
// and several contexts canceled in one juncture.
func FuzzVirtualMatchesModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		progs := decodeModelProgram(data)
		m := runModel(progs)
		for _, procs := range []int{1, 2} {
			var trace []modelEntry
			var now time.Duration
			var stalls uint64
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				trace, now, stalls = runReal(t, progs)
			}()
			if !slices.Equal(trace, m.trace) || now != m.now || stalls != m.stalls {
				t.Fatalf("GOMAXPROCS=%d: program %v\nreal:  now %v, stalls %d, trace %v\nmodel: now %v, stalls %d, trace %v",
					procs, progs, now, stalls, trace, m.now, m.stalls, m.trace)
			}
		}
	})
}
