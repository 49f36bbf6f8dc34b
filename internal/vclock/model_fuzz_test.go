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

// decodeModelProgram turns fuzz bytes into a program: header byte 0 picks
// how many programs (its low bits) and, when its high bit is set, says a
// topology byte follows; then each (op, arg) pair appends op kind op&7 to
// program (op>>3)%n. Without a topology byte the contexts are standard
// roots, so corpus entries written for flat contexts keep their meaning.
func decodeModelProgram(data []byte) modelProgram {
	var p modelProgram
	for k := range p.ctxs {
		p.ctxs[k].parent = modelCtxs
	}
	if len(data) == 0 {
		p.progs = [][]modelOp{nil}
		return p
	}
	progs := make([][]modelOp, 1+int(data[0])%modelProgs)
	i := 1
	if data[0]&0x80 != 0 && len(data) > 1 {
		p.ctxs = decodeModelTree(data[1])
		i = 2
	}
	for end := i + 2*modelOps; i+1 < len(data) && i < end; i += 2 {
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
		to := (op >> 3) % len(progs)
		progs[to] = append(progs[to], o)
	}
	p.progs = progs
	return p
}

// decodeModelTree reads a topology byte: bit k makes context k a scope;
// bit 3 hangs context 1 under context 0; bits 4–5 hang context 2 under
// Background, context 0 or context 1 (value mod 3).
func decodeModelTree(t byte) (ctxs [modelCtxs]modelCtx) {
	parents := [modelCtxs]int{modelCtxs, modelCtxs, modelCtxs}
	if t>>3&1 == 1 {
		parents[1] = 0
	}
	if v := int(t>>4&3) % 3; v > 0 {
		parents[2] = v - 1
	}
	for k := range ctxs {
		ctxs[k] = modelCtx{parent: parents[k], scope: t>>k&1 == 1}
	}
	return ctxs
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

// runReal runs p to the end or to a stall, snapshots the recorder's full
// trace, Now and Stalls, then tears the world down from outside. Each
// context is minted under its parent, as a scope or a standard one.
func runReal(t *testing.T, p modelProgram) (trace []modelEntry, now time.Duration, stalls uint64) {
	r := &realRun{c: NewVirtual(Epoch), progs: p.progs}
	r.c.StartRecorder(RecorderConfig{WindowFrom: 1, WindowTo: 1 << 62})
	r.ctxs[modelCtxs] = context.Background()
	for i, x := range p.ctxs {
		if x.scope {
			r.ctxs[i], r.cancels[i] = r.c.WithCancel(r.ctxs[x.parent])
		} else {
			r.ctxs[i], r.cancels[i] = context.WithCancel(r.ctxs[x.parent])
		}
	}
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
// Its corpus (testdata/fuzz) holds contexts shared by sleepers and waiters,
// several contexts canceled in one juncture, and the context trees a scope
// sits in: under a standard parent, under a scope, and with a standard
// child.
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
