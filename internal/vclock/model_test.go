package vclock

import (
	"fmt"
	"time"
)

// This file is the executor's reference model: a sequential interpreter of
// the scheduling rules DESIGN.md states for Virtual, with no goroutines and
// no heap. Participants run op programs; the model keeps now, a FIFO run
// queue, the sleepers sorted by (deadline, seq), one FIFO waiter list per
// primitive and the canceled contexts, and emits the trace those rules
// dictate: the token passes in run-queue order; at an empty-queue juncture
// every sleeper and waiter whose context is done is delivered, in seq
// order, before time may advance to the earliest (deadline, seq) sleeper;
// a stall is counted only when nothing is runnable and nothing sleeps.
// FuzzVirtualMatchesModel (model_fuzz_test.go) holds the real executor to
// it. Sem, Group and Compute are not modeled yet. The cancelable contexts
// form a tree; canceling one cancels its subtree. Whether the real one is
// a cancel scope (Virtual.WithCancel) or a standard context is not the
// model's business: the rule is the same for both.

// Op kinds of a model program.
const (
	opSleep        = iota // a: seconds (0 returns at once), b: context
	opGo                  // a: program the new participant runs
	opEventWait           // a: event, b: context
	opEventFire           // a: event
	opEventReset          // a: event
	opNotifierWait        // a: notifier, b: context
	opNotifierSet         // a: notifier
	opCancel              // a: context
)

const (
	modelCtxs   = 3 // cancelable contexts; context index modelCtxs is Background
	modelPrims  = 2 // events, and as many notifiers
	modelSpawns = 8 // participants a run may spawn, the root included
)

type modelOp struct{ kind, a, b int }

// modelCtx is one cancelable context: its parent, a lower index or
// modelCtxs for Background, and whether the real run mints it as a scope.
type modelCtx struct {
	parent int
	scope  bool
}

// modelProgram is a run's context tree and its participants' programs;
// program 0 is the root participant's.
type modelProgram struct {
	ctxs  [modelCtxs]modelCtx
	progs [][]modelOp
}

// modelEntry is one decision as the recorder sees it.
type modelEntry struct {
	kind TraceKind
	seq  uint64
	at   time.Duration // since Epoch
}

func (e modelEntry) String() string { return fmt.Sprintf("%v/%d@%v", e.kind, e.seq, e.at) }

// modelPart is one participant: its program, its position and its current
// arming (seq, context, deadline).
type modelPart struct {
	prog, pc int
	seq      uint64
	ctx      int
	deadline time.Duration
	waitOn   *[]*modelPart // the waiter list it is parked on; nil otherwise
	asleep   bool
}

type model struct {
	modelProgram
	now      time.Duration
	seq      uint64
	cur      *modelPart
	runq     []*modelPart
	sleepers []*modelPart // sorted by (deadline, seq)
	blocked  []*modelPart // every sleeper and parked waiter, any order
	canceled [modelCtxs + 1]bool
	fired    [modelPrims]bool
	set      [modelPrims]bool
	evq, nq  [modelPrims][]*modelPart
	spawned  int
	live     int
	stalls   uint64
	trace    []modelEntry
}

// runModel interprets p from a root participant running program 0,
// spawned from outside the world, until the world finishes or stalls.
func runModel(p modelProgram) *model {
	m := &model{modelProgram: p}
	m.join(0)
	m.schedule()
	for m.cur != nil {
		m.exec(m.cur)
	}
	return m
}

func (m *model) record(kind TraceKind, seq uint64) {
	m.trace = append(m.trace, modelEntry{kind, seq, m.now})
}

func (m *model) join(prog int) {
	m.spawned++
	m.live++
	m.runq = append(m.runq, &modelPart{prog: prog})
}

// exec runs the token holder p until it gives the token up.
func (m *model) exec(p *modelPart) {
	for p.pc < len(m.progs[p.prog]) {
		op := m.progs[p.prog][p.pc]
		p.pc++
		switch op.kind {
		case opSleep:
			if op.a == 0 {
				continue
			}
			m.seq++
			p.seq, p.ctx, p.deadline, p.asleep = m.seq, op.b, m.now+time.Duration(op.a)*time.Second, true
			i := len(m.sleepers)
			for i > 0 && m.sleepers[i-1].deadline > p.deadline {
				i--
			}
			m.sleepers = append(m.sleepers[:i], append([]*modelPart{p}, m.sleepers[i:]...)...)
			m.block(p)
			return
		case opGo:
			if m.spawned < modelSpawns {
				m.join(op.a)
			}
		case opEventWait:
			if !m.fired[op.a] {
				m.park(p, &m.evq[op.a], op.b)
				return
			}
		case opEventFire:
			if !m.fired[op.a] {
				m.fired[op.a] = true
				m.wakeAll(&m.evq[op.a])
			}
		case opEventReset:
			m.fired[op.a] = false
		case opNotifierWait:
			if m.canceled[op.b] {
				continue
			}
			if m.set[op.a] {
				m.set[op.a] = false
				continue
			}
			m.park(p, &m.nq[op.a], op.b)
			return
		case opNotifierSet:
			if !m.wakeAll(&m.nq[op.a]) {
				m.set[op.a] = true
			}
		case opCancel:
			var sub [modelCtxs]bool
			for k := op.a; k < modelCtxs; k++ {
				if par := m.ctxs[k].parent; k == op.a || par < modelCtxs && sub[par] {
					sub[k], m.canceled[k] = true, true
				}
			}
		}
	}
	m.live--
	m.cur = nil
	m.schedule()
}

// park arms p for a primitive wait and queues it on q.
func (m *model) park(p *modelPart, q *[]*modelPart, ctx int) {
	m.seq++
	p.seq, p.ctx, p.waitOn = m.seq, ctx, q
	*q = append(*q, p)
	m.block(p)
}

func (m *model) block(p *modelPart) {
	m.blocked = append(m.blocked, p)
	m.cur = nil
	m.schedule()
}

// unblock takes p off every list it waits on. A canceled waiter leaves its
// primitive's list here, at delivery; the real one unlinks itself when it
// next runs, and a signal in between skips it as claimed — the same wakes.
func (m *model) unblock(p *modelPart) {
	m.blocked = removePart(m.blocked, p)
	if p.asleep {
		m.sleepers, p.asleep = removePart(m.sleepers, p), false
	}
	if p.waitOn != nil {
		*p.waitOn, p.waitOn = removePart(*p.waitOn, p), nil
	}
}

func removePart(s []*modelPart, p *modelPart) []*modelPart {
	for i, x := range s {
		if x == p {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// wakeAll makes q's waiters runnable in FIFO order; true if it had any.
func (m *model) wakeAll(q *[]*modelPart) bool {
	woke := append([]*modelPart(nil), *q...)
	for _, p := range woke {
		m.unblock(p)
		m.runq = append(m.runq, p)
	}
	return len(woke) > 0
}

// schedule is the juncture rule: grant the run queue's head; else deliver
// canceled waiters by seq, then advance to the first sleeper, else stall.
func (m *model) schedule() {
	if m.cur != nil {
		return
	}
	if len(m.runq) == 0 {
		var due []*modelPart
		for _, p := range m.blocked {
			if m.canceled[p.ctx] {
				due = append(due, p)
			}
		}
		for i := 1; i < len(due); i++ {
			for j := i; j > 0 && due[j].seq < due[j-1].seq; j-- {
				due[j], due[j-1] = due[j-1], due[j]
			}
		}
		for _, p := range due {
			m.unblock(p)
			m.record(TraceCancel, p.seq)
			m.runq = append(m.runq, p)
		}
	}
	if len(m.runq) > 0 {
		m.cur, m.runq = m.runq[0], m.runq[1:]
		m.record(TraceGrant, m.cur.seq)
		return
	}
	if len(m.sleepers) > 0 {
		s := m.sleepers[0]
		m.unblock(s)
		m.now = max(m.now, s.deadline)
		m.record(TraceAdvance, s.seq)
		m.cur = s
		return
	}
	if m.live > 0 {
		m.stalls++
	}
}
