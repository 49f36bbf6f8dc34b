package streaming

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// The segment lifecycle (DESIGN.md "Segment lifecycle") under test: the
// partition log against a naive slice model with every view retained, an
// allocation budget for the replicated data plane, and the follower
// append benchmark.

// heldView is one view the driver kept: the slice the log handed out and
// what it read at that instant.
type heldView struct {
	got  []Message
	want []wantMsg
}

type wantMsg struct {
	offset    int64
	value     string
	published time.Time
}

// life is what the driver tracks about one life of a segment in a log:
// its arrays and whether it was borrowed, after the previous step.
type life struct {
	msgs     *Message // head of the msgs array
	cum      *int64   // head of the cum array
	borrowed bool
}

// logModel is the naive reference: the retained log as one plain slice.
type logModel struct {
	first     int64 // oldest retained offset
	committed int64
	base      int64     // payload bytes below first: the reset's count, then what trims took
	msgs      []Message // offsets [first, first+len(msgs))
}

func (m *logModel) end() int64 { return m.first + int64(len(m.msgs)) }

func payloadBytes(msgs []Message) int64 {
	var n int64
	for i := range msgs {
		n += int64(len(msgs[i].Key) + len(msgs[i].Value))
	}
	return n
}

// replica is one log under the driver: its reference model and the
// bookkeeping the lifecycle checks need.
type replica struct {
	l     *Log
	m     logModel
	live  map[*segment]bool // in l.segs after the previous step
	next  map[*segment]bool // check's scratch for the next live
	lives map[*segment]life // this life of each segment in l.segs
}

// newReplica is a bare log on the driver's counters and free list: the
// driver's two logs share both, as a cluster's do.
func newReplica(segSize int, st *Stats, free *freeList) *replica {
	return &replica{l: &Log{segSize: segSize, stats: st, free: free}, live: map[*segment]bool{},
		next: map[*segment]bool{}, lives: map[*segment]life{}}
}

// reset is ResetTo(first, bytes) on the log and its model.
func (r *replica) reset(first, bytes int64) {
	r.m = logModel{first: first, committed: first, base: bytes}
	r.l.ResetTo(first, bytes)
}

// wantCap is the capacity rule, from the model alone: the array capacity
// and room of segs[i]. While the model's retained range starts at offset
// 0, its first segment is a chain — a first link of minSegCap, links
// doubling while the chain stays within an eighth of the segment, then a
// last link holding the rest in an array of segSize; every other array is
// a whole segment.
func (r *replica) wantCap(i, segSize int) (array, room int) {
	for start, k := 0, minSegCap; r.m.first == 0 && i >= 0; start, k, i = start+k, 2*k, i-1 {
		if start == 0 && k >= segSize || start > 0 && start+k > segSize/8 { // the last link
			if i == 0 {
				return segSize, segSize - start
			}
			break
		}
		if i == 0 {
			return k, k
		}
	}
	return segSize, segSize
}

// trim applies Trim(below) to the model: whole sealed segments below
// `below` go, and the mark rises to the floor.
func (r *replica) trim(below, segSize int64) {
	for r.m.first+segSize <= below && int64(len(r.m.msgs)) >= segSize {
		r.m.base += payloadBytes(r.m.msgs[:segSize])
		r.m.msgs = r.m.msgs[segSize:]
		r.m.first += segSize
	}
	r.m.committed = max(r.m.committed, r.m.first)
}

// driveLogAgainstModel interprets script as (op, arg) byte pairs over two
// bare Logs with segSize-message segments — no broker, no topic map, no
// clock — and checks both against their models after every step (see
// logDriver.step for the decoder). The driver it returns holds what the
// run counted: refills (both logs'), births (the first log's) and both
// logs' counters.
func driveLogAgainstModel(script []byte, segSize int64) (*logDriver, error) {
	d := newLogDriver(segSize)
	return d, d.run(script)
}

// logDriver is driveLogAgainstModel's state between steps: two logs and
// their models, every kept view ever returned, and the catch-up round in
// flight. A script's steps are applied one at a time (step), so the
// enumerator (logenum_test.go) can read the state a step starts from.
type logDriver struct {
	segSize   int64
	lead, fol *replica
	spans     []plan.EpochSpan
	held      []heldView
	viewHi    int64 // highest offset any view has reached (exclusive)
	writes    int
	viewed    map[*segment]bool // a kept view of it has left its log
	inflight  runnerBatch       // the catch-up round between its two sections
	steps     int
	flat      []Message // check's scratch

	free     freeList
	listed   []*segment        // free.roots after the previous step
	retired  map[*segment]bool // left a log's segs, not (yet) born again
	kept     map[*Message]bool // heads of the segSize arrays a held view reaches
	peakLive int               // the most segSize msgs arrays live at once, as checkBound reads it
	live     map[*Message]bool // checkBound's scratch

	refills    int   // segments reborn from the free list, in either log
	births     []int // the room of each array born into the first log
	chainAlias int   // follower segments born aliasing a link of the first log's chain
	st         Stats
}

func newLogDriver(segSize int64) *logDriver {
	d := &logDriver{segSize: segSize, spans: []plan.EpochSpan{{Start: 0, Epoch: 0}}, viewed: map[*segment]bool{},
		retired: map[*segment]bool{}, kept: map[*Message]bool{}, live: map[*Message]bool{}}
	d.lead, d.fol = newReplica(int(segSize), &d.st, &d.free), newReplica(int(segSize), &d.st, &d.free)
	return d
}

// run applies script's (op, arg) pairs in order; a trailing odd byte is
// ignored.
func (d *logDriver) run(script []byte) error {
	for i := 0; i+1 < len(script); i += 2 {
		if err := d.step(script[i], script[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// mint makes the message written at offset: its payload is unique to the
// offset and the write.
func (d *logDriver) mint(offset int64) Message {
	d.writes++
	v := strconv.AppendInt(append(make([]byte, 0, 16), 'o'), offset, 10)
	v = strconv.AppendInt(append(v, ".w"...), int64(d.writes), 10)
	return Message{Topic: "t", Offset: offset,
		Value:     append(append(v, '.'), "xxxx"[:offset%5]...),
		Published: vclock.Epoch.Add(time.Duration(d.writes) * time.Millisecond)}
}

// check compares one log with its model: coordinates, epoch chain,
// segment shapes and the capacity rule, every message, and the byte sums.
func (d *logDriver) check(r *replica, step int, op string) error {
	l, m, full := r.l, &r.m, int(d.segSize)
	fail := func(format string, a ...any) error {
		return fmt.Errorf("step %d (%s): %s", step, op, fmt.Sprintf(format, a...))
	}
	first, end, epochs := l.Snapshot(nil)
	committed := l.committed
	if first != m.first || end != m.end() || committed != m.committed {
		return fail("Snapshot first/end/committed %d/%d/%d, model %d/%d/%d",
			first, end, committed, m.first, m.end(), m.committed)
	}
	// Every write here is under epoch 0: the chain is one span from the
	// oldest offset this incarnation of the log ever held, or empty.
	if len(epochs) > 1 || (len(epochs) == 1 && (epochs[0].Epoch != 0 || epochs[0].Start > first)) ||
		(len(epochs) == 0 && end > first) {
		return fail("Snapshot epochs %v over [%d, %d)", epochs, first, end)
	}
	flat, now := d.flat[:0], r.next
	clear(now)
	for i, seg := range l.segs {
		if len(seg.cum) != len(seg.msgs) || (i < len(l.segs)-1 && len(seg.msgs) != cap(seg.cum)) {
			return fail("segment %d holds %d msgs, %d cum", i, len(seg.msgs), len(seg.cum))
		}
		flat = append(flat, seg.msgs...)
		now[seg] = true
		// The capacity rule, exact: every array has the rule's capacity for
		// its place, and an alias borrows an array of that capacity.
		if array, room := r.wantCap(i, full); cap(seg.cum) != room || cap(seg.msgs) != array {
			return fail("segment %d has cap %d (cum %d), want %d (room %d; first %d, segSize %d)",
				i, cap(seg.msgs), cap(seg.cum), array, room, r.m.first, d.segSize)
		}
		lf := life{&seg.msgs[:1][0], &seg.cum[:1][0], seg.borrowed}
		if !r.live[seg] { // born in nextSegment during this step
			if d.viewed[seg] {
				return fail("nextSegment returned a viewed segment")
			}
			if d.retired[seg] {
				d.refills++
				delete(d.retired, seg)
			}
			if r == d.lead {
				d.births = append(d.births, cap(seg.cum))
			} else if seg.borrowed && cap(seg.cum) < full {
				d.chainAlias++
			}
		} else if was := r.lives[seg]; (lf.msgs != was.msgs || lf.cum != was.cum) && !was.borrowed {
			// No array that held a published slot is replaced, except a
			// borrowed tail's by its copy on write, which replaces both.
			return fail("segment %d's arrays were replaced (borrowed %v)", i, was.borrowed)
		} else if was.borrowed && !lf.borrowed && (lf.msgs == was.msgs || lf.cum == was.cum) {
			return fail("segment %d's copy on write kept an array (msgs %v, cum %v)", i, lf.msgs == was.msgs, lf.cum == was.cum)
		}
		r.lives[seg] = lf
	}
	for seg := range r.live {
		if !now[seg] {
			d.retired[seg] = true
			delete(r.lives, seg)
		}
	}
	r.live, r.next, d.flat = now, r.live, flat
	if len(flat) != len(m.msgs) {
		return fail("log holds %d messages, model %d", len(flat), len(m.msgs))
	}
	cum := m.base
	for i := range flat {
		g, w := flat[i], m.msgs[i]
		if g.Offset != w.Offset || g.Topic != w.Topic || g.Partition != w.Partition ||
			!bytes.Equal(g.Value, w.Value) || !g.Published.Equal(w.Published) {
			return fail("offset %d reads %+v, model %+v", w.Offset, g, w)
		}
		if got := l.BytesThrough(w.Offset); got != cum {
			return fail("BytesThrough(%d) = %d, model %d", w.Offset, got, cum)
		}
		cum += int64(len(w.Value))
	}
	if got := l.BytesThrough(end); got != cum {
		return fail("BytesThrough(end) = %d, model %d", got, cum)
	}
	if got, want := l.Resident(), payloadBytes(m.msgs); got != want {
		return fail("resident bytes %d, model %d", got, want)
	}
	if got, want := l.Inflight(), payloadBytes(m.msgs[m.committed-m.first:]); got != want {
		return fail("in-flight bytes %d, model %d", got, want)
	}
	return nil
}

// checkHeld re-reads every kept view the driver holds.
func (d *logDriver) checkHeld(step int, op string) error {
	for _, h := range d.held {
		if len(h.got) != len(h.want) {
			return fmt.Errorf("step %d (%s): held view at %d changed length %d -> %d", step, op, h.want[0].offset, len(h.want), len(h.got))
		}
		for i, w := range h.want {
			if g := h.got[i]; g.Offset != w.offset || string(g.Value) != w.value || !g.Published.Equal(w.published) {
				return fmt.Errorf("step %d (%s): held view of offset %d now reads (%d, %q, %v), was (%d, %q, %v)",
					step, op, w.offset, g.Offset, g.Value, g.Published, w.offset, w.value, w.published)
			}
		}
	}
	return nil
}

// step applies one (op, arg) pair. The first log takes leader appends
// (Append), copied follower appends (AppendReplicated of a fresh batch),
// views, commits, commit-mark placements, trims, suffix truncations and
// resets, in any order: a log plays both roles over its life. The op
// byte's bits above the low three drive the second log, a follower of the
// first: a catch-up round (the cluster's runner, by alias where the batch
// lands on the first log's array, its batch pinned across the steps
// between its two sections; a repair truncation where it holds a suffix
// the first does not; a bootstrap where it fell behind the first's
// floor), a trim of its own, or an append of its own — the write that
// must never land in a borrowed array. Every message carries a payload
// unique to its offset and write, and every kept view ever returned is
// kept to the end of the run and re-read after every later step, as is
// every message of both logs, which is what proves kept views, aliases and
// pinned batches survive growth, refill and truncation.
// Truncations of the first log stay at or above the highest offset ever
// viewed, which is the cluster's protocol (views only below the
// acknowledged watermark, truncation only at or above it); the runner's
// batches are not so bounded. At 4-message segments scripts seal, trim and
// refill constantly and every array is a whole segment; at 64 the segment
// at offset 0 is a chain, a 16-message link and 48 in a 64-slot array.
func (d *logDriver) step(opByte, argByte byte) error {
	step := d.steps
	d.steps++
	op, arg, segSize := opByte%8, int64(argByte), d.segSize
	l, m := d.lead.l, &d.lead.m
	name := ""
	switch op {
	case 0, 1:
		name = "AppendBatch"
		run := make([]Message, 1+arg%6)
		for i := range run {
			run[i] = d.mint(m.end() + int64(i))
		}
		if err := appendRun(l, run); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		m.msgs = append(m.msgs, run...)
	case 2, 3:
		name = "AppendReplicated"
		batch := make([]Message, 1+arg%9) // up to three segments in one call
		for i := range batch {
			batch[i] = d.mint(m.end() + int64(i))
		}
		if err := l.AppendReplicated(batch, nil, d.spans); err != nil {
			return err
		}
		m.msgs = append(m.msgs, batch...)
		// Then, as a promoted follower's first commit would, the mark moves
		// up by up to seven messages (clamped to the end), or stays.
		lc := m.committed + arg/9%8
		l.Commit(lc)
		m.committed = max(m.committed, min(lc, m.end()))
	case 4:
		name = "View"
		if len(m.msgs) == 0 {
			break
		}
		// The view's length is segSize arithmetic's whatever the arrays: to
		// the segment's end, the log's, or the ask. It aliases the one array
		// holding it, which it marks viewed, or it is a copy when it crosses
		// links of a chain.
		off, ask := m.first+arg%int64(len(m.msgs)), 1+arg/32
		n := min(ask, m.end()-off, segSize-(off-m.first)%segSize)
		spanned := d.st.Spanned
		v := l.View(off, int(ask), false)
		i, j := l.index(off)
		seg := l.segs[i]
		if aliased := &v[0] == &seg.msgs[j]; int64(len(v)) != n || aliased != (d.st.Spanned == spanned) ||
			aliased && !seg.viewed || !aliased && j+int(n) <= len(seg.msgs) {
			return fmt.Errorf("step %d: View(%d, %d) returned %d messages (want %d), aliased %v, viewed %v",
				step, off, ask, len(v), n, aliased, seg.viewed)
		} else if aliased {
			d.viewed[seg] = true
			if cap(seg.msgs) == int(segSize) {
				d.kept[&seg.msgs[:1][0]] = true
			}
		}
		h := heldView{got: v}
		for i := range v {
			if w := m.msgs[off-m.first+int64(i)]; v[i].Offset != w.Offset || !bytes.Equal(v[i].Value, w.Value) {
				return fmt.Errorf("step %d: View(%d)[%d] reads %+v, model %+v", step, off, i, v[i], w)
			}
			h.want = append(h.want, wantMsg{v[i].Offset, string(v[i].Value), v[i].Published})
		}
		d.held = append(d.held, h)
		d.viewHi = max(d.viewHi, off+int64(len(v)))
	case 5:
		name = "Commit"
		through := m.committed + arg%(m.end()-m.committed+2) // one past the end: clamped
		from, to, ok := l.Commit(through)
		through = min(through, m.end())
		if from != m.committed || to != through || ok != (through > m.committed) {
			return fmt.Errorf("step %d: Commit(%d) = %d, %d, %v with mark %d, end %d",
				step, through, from, to, ok, m.committed, m.end())
		}
		m.committed = through
	case 6:
		// Clamped to the mark, as onSave clamps every replica's trim.
		name = "Trim"
		below := min(m.first+arg%(int64(len(m.msgs))+2*segSize), m.committed)
		got := l.Trim(below)
		d.lead.trim(below, segSize)
		if got != m.first {
			return fmt.Errorf("step %d: Trim returned floor %d, model %d", step, got, m.first)
		}
	case 7:
		switch arg % 4 {
		case 0:
			name = "ResetTo"
			d.lead.reset(m.end()+arg/4%7, 0)
		case 1:
			// Either direction, and past both ends: the mark clamps to the
			// retained range.
			name = "SetCommitted"
			mark := m.first - 2 + arg/4%(int64(len(m.msgs))+5)
			l.SetCommitted(mark)
			m.committed = min(max(mark, m.first), m.end())
		default:
			name = "TruncateTo"
			lo := max(d.viewHi, m.first)
			if lo >= m.end() {
				break
			}
			to := lo + arg%(m.end()-lo)
			l.TruncateTo(to)
			m.msgs = m.msgs[:to-m.first]
			m.committed = min(m.committed, to)
		}
	}
	// The leader is checked before the follower's move (a catch-up round
	// views a segment the step may have just born) and again after it
	// (a follower write must not have reached the leader's arrays).
	if err := d.check(d.lead, step, name); err != nil {
		return err
	}
	name, err := d.follow(opByte/8%4, arg, name)
	if err != nil {
		return fmt.Errorf("step %d: %w", step, err)
	}
	for _, r := range []*replica{d.fol, d.lead} {
		if err := d.check(r, step, name); err != nil {
			return err
		}
	}
	if err := d.checkHeld(step, name); err != nil {
		return err
	}
	if err := d.checkBound(step, name); err != nil {
		return err
	}
	// The replica oracle reads what the models say: the first offset
	// both logs hold where the follower's message is not the leader's.
	fd, hi := firstDiff(&d.fol.m, &d.lead.m)
	if got, ok := d.fol.l.differsAt(d.lead.l); ok != (fd < hi) || (ok && got != fd) {
		return fmt.Errorf("step %d (%s): differsAt = %d, %v; models first differ at %d of [.., %d)",
			step, name, got, ok, fd, hi)
	}
	return nil
}

// checkBound is the free list's bound: the msgs arrays of segSize that are
// live — held by a segment of either log, a pinned part in flight or a
// held view — and the listed ones are disjoint, and together never more
// than the most that were live at once so far. It holds because such an
// array is made (a birth or a copy on write) only while no owning root is
// listed. A step may make an array and then list another, so the most
// live at once is read as the live ones plus the roots listed since the
// previous step — the list's top above what it shares with the previous
// step's: no array was made after the first of them was listed, and each
// was live until then.
func (d *logDriver) checkBound(step int, op string) error {
	live := d.live
	clear(live)
	add := func(msgs []Message) {
		if cap(msgs) == int(d.segSize) {
			live[&msgs[:1][0]] = true
		}
	}
	for _, r := range []*replica{d.lead, d.fol} {
		for _, seg := range r.l.segs {
			add(seg.msgs)
		}
	}
	for _, head := range d.inflight.heads {
		live[head] = true
	}
	for head := range d.kept {
		live[head] = true
	}
	shared := 0
	for shared < min(len(d.listed), len(d.free.roots)) && d.listed[shared] == d.free.roots[shared] {
		shared++
	}
	d.listed = append(d.listed[:0], d.free.roots...)
	d.peakLive = max(d.peakLive, len(live)+len(d.free.roots)-shared)
	for _, seg := range d.free.roots {
		if cap(seg.msgs) != int(d.segSize) || live[&seg.msgs[:1][0]] {
			return fmt.Errorf("step %d (%s): a listed root holds a live array or none of segSize (cap %d)",
				step, op, cap(seg.msgs))
		}
	}
	if n := len(live) + len(d.free.roots); n > d.peakLive {
		return fmt.Errorf("step %d (%s): %d live and %d listed segSize arrays, over the peak of %d live",
			step, op, len(live), len(d.free.roots), d.peakLive)
	}
	return nil
}

// firstDiff returns the first offset both models hold at which the
// follower's message is not the leader's (payloads are unique per write),
// and the end of what both hold; d == hi when they agree.
func firstDiff(fm, lm *logModel) (d, hi int64) {
	d, hi = max(fm.first, lm.first), min(fm.end(), lm.end())
	for d < hi && bytes.Equal(fm.msgs[d-fm.first].Value, lm.msgs[d-lm.first].Value) {
		d++
	}
	return d, hi
}

// runnerBatch is a catch-up round's batch between the runner's two
// sections: the parts the leader pinned, what they read, and the heads of
// the segSize arrays they pin.
type runnerBatch struct {
	parts []pinned
	want  []Message
	heads []*Message
}

// follow takes the follower's move of one step — act 1 a catch-up round
// against the leader, 2 a trim, 3 an append of its own, 0 nothing — and
// returns the step's name with the move's appended. A catch-up round
// takes two acts, as the runner's two sections straddle its pacing sleep:
// the first views and pins a batch, and any step may trim, truncate or
// refill the leader before the second appends it (discarded as torn if the
// follower's end moved) and unpins it.
func (d *logDriver) follow(act byte, arg int64, name string) (string, error) {
	l, f, lm, fm, b := d.lead.l, d.fol.l, &d.lead.m, &d.fol.m, &d.inflight
	segSize := d.segSize
	switch act {
	case 1:
		if held := *b; held.parts != nil {
			*b = runnerBatch{}
			to := f
			if held.want[0].Offset != fm.end() {
				to = nil // torn: discarded, and unpinned all the same
			}
			if landRound(to, held.parts, d.spans) != (to != nil) {
				return name, fmt.Errorf("catch-up batch at %d did not land on follower end %d", held.want[0].Offset, fm.end())
			} else if to == nil {
				return name + "+follower torn batch", nil
			}
			fm.msgs = append(fm.msgs, held.want...)
			return name + "+follower catch-up", nil
		}
		fd, _ := firstDiff(fm, lm)
		switch {
		case fm.first > lm.end() || fm.end() < lm.first:
			d.fol.reset(lm.first, lm.base) // the leader's count, as the runner's bootstrap
			return name + "+follower ResetTo", nil
		case fm.end() > fd:
			f.TruncateTo(fd)
			fm.msgs = fm.msgs[:fd-fm.first]
			fm.committed = min(fm.committed, fd)
			return name + "+follower TruncateTo", nil
		case fm.end() < lm.end():
			at := fm.end()
			var n int
			b.parts, n = l.pin(at, int(1+arg%(2*segSize)), nil)
			for _, part := range b.parts {
				if cap(part.src.msgs) == int(segSize) {
					b.heads = append(b.heads, &part.src.msgs[:1][0])
				}
			}
			b.want = append([]Message(nil), lm.msgs[at-lm.first:at-lm.first+int64(n)]...)
			return name + "+follower batch", nil
		}
	case 2:
		// Clamped to the partition's mark, the first log's.
		below := min(fm.first+arg%(int64(len(fm.msgs))+2*segSize), lm.committed)
		got := f.Trim(below)
		if d.fol.trim(below, segSize); got != fm.first {
			return name, fmt.Errorf("follower Trim returned floor %d, model %d", got, fm.first)
		}
		return name + "+follower Trim", nil
	case 3:
		run := []Message{d.mint(fm.end())}
		if err := appendRun(f, run); err != nil {
			return name, err
		}
		fm.msgs = append(fm.msgs, run...)
		return name + "+follower Append", nil
	}
	return name, nil
}

// appendRun lands run on l in one AppendBatch call, as a publish lands a
// partition's sub-batch: interleaved with another partition's messages in
// the batch, under one stamp, run[0]'s, which it gives the whole run. It
// checks the result slots the call fills against run.
func appendRun(l *Log, run []Message) error {
	values := make([][]byte, 2*len(run))
	idxs := make([]int32, len(run))
	for i := range run {
		run[i].Published = run[0].Published
		values[2*i+1], idxs[i] = run[i].Value, int32(2*i+1)
	}
	res := make([]Message, len(run))
	l.AppendBatch("t", 0, batch{values: values}, idxs, run[0].Published, res)
	for i, r := range res {
		if w := run[i]; r.Offset != w.Offset || !bytes.Equal(r.Value, w.Value) || !r.Published.Equal(w.Published) {
			return fmt.Errorf("AppendBatch result %d reads (%d, %q), want (%d, %q)", i, r.Offset, r.Value, w.Offset, w.Value)
		}
	}
	return nil
}

// appendValues lands values on l in one AppendBatch call stamped at.
func appendValues(l *Log, at time.Time, values ...[]byte) {
	idxs := make([]int32, len(values))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	l.AppendBatch("t", 0, batch{values: values}, idxs, at, nil)
}

// logScript draws a script of n steps from a seed.
func logScript(seed int64, n int) []byte {
	next := xorshift(seed)
	out := make([]byte, 2*n)
	for i := range out {
		out[i] = byte(next(256))
	}
	return out
}

// growthScript walks one log through its cold chain at 64-message
// segments (a 16-slot link, then the last link's 48 messages in a 64-slot
// array): links born with views held across them, TruncateTo back into
// the second link, re-append over the truncated slots, then ResetTo past
// offset 0, where segments are whole. The committed corpus seed
// "growth-truncate-reset" is this script.
var growthScript = []byte{
	0, 5, 0, 5, // 12 messages in the 16-slot first link
	4, 96, // view [0, 4)
	0, 5, // 18: the second link is born
	4, 45, // view [9, 11)
	2, 8, 0, 5, // 27, then 33
	7, 6, // TruncateTo(17), inside the second link
	0, 5, // re-append 17..22 over the truncated slots
	4, 20, // view [20, 21)
	7, 12, // ResetTo(26)
	0, 5, 0, 5, 0, 5, // 18 messages in one 64-slot array
	4, 0, // view [26, 27)
	2, 8, 2, 8, // 36
}

// sealTrimScript fills a 64-message segment exactly — both its links —
// has it viewed, committed and trimmed away whole — the log is empty —
// and appends: the log has trimmed a segment, so the next is born at full
// size. Batch-aligned producers with a prompt consumer do this at every
// boundary.
var sealTrimScript = []byte{2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 0, 0, 4, 0, 5, 64, 6, 64, 0, 0}

// TestPartitionLogMatchesModel is the segment-lifecycle property: over
// randomized operation sequences the log agrees with the slice model after
// every step, no segment that was ever viewed is born again (pointer
// identity), every array has the capacity rule's size and room for its
// place and is never replaced but by a copy on write, and every view ever handed
// out reads what it read after every later step.
func TestPartitionLogMatchesModel(t *testing.T) {
	for _, segSize := range []int64{4, 64} {
		refills, links, chainAlias := 0, 0, 0
		var all Stats
		for seed := int64(1); seed <= 300; seed++ {
			d, err := driveLogAgainstModel(logScript(seed, 400), segSize)
			if err != nil {
				t.Fatalf("segSize %d seed %d: %v", segSize, seed, err)
			}
			refills += d.refills
			chainAlias += d.chainAlias
			for _, c := range d.births {
				if int64(c) < segSize {
					links++
				}
			}
			all.Aliased += d.st.Aliased
			all.CopyOnWrite += d.st.CopyOnWrite
			all.Spanned += d.st.Spanned
		}
		t.Logf("segSize %d: %d refills, %d chain links born, %d aliased by a follower, %d views copied across links, %d messages aliased, %d copies on write",
			segSize, refills, links, chainAlias, all.Spanned, all.Aliased, all.CopyOnWrite)
		if refills == 0 {
			t.Fatalf("segSize %d: no script ever refilled a listed segment: the property is not exercised", segSize)
		}
		if chained := segSize > minSegCap; (links > 0) != chained || chained && (chainAlias == 0 || all.Spanned == 0) {
			t.Fatalf("segSize %d: %d chain links born, %d aliased, %d views across links: the chain is not exercised as it should be",
				segSize, links, chainAlias, all.Spanned)
		}
		if all.Aliased == 0 || all.CopyOnWrite == 0 {
			t.Fatalf("segSize %d: %d messages aliased, %d copies on write: the borrowed-array rules are not exercised",
				segSize, all.Aliased, all.CopyOnWrite)
		}
	}
	for _, c := range []struct {
		name   string
		script []byte
		births []int
	}{
		{"growth", growthScript, []int{16, 48, 64}},
		{"seal-trim", sealTrimScript, []int{16, 48, 64}},
	} {
		d, err := driveLogAgainstModel(c.script, 64)
		if err != nil || fmt.Sprint(d.births) != fmt.Sprint(c.births) {
			t.Fatalf("%s script: arrays born %v, want %v; err %v", c.name, d.births, c.births, err)
		}
	}
}

// FuzzPartitionLogMatchesModel exposes the same driver to the native
// fuzzer, each script at both segment sizes; the committed corpus under
// testdata/fuzz holds scripts from the seeds above and growthScript.
func FuzzPartitionLogMatchesModel(f *testing.F) {
	f.Add(logScript(7, 64))
	// Fill two segments as a follower, commit, trim, refill, view.
	f.Add(bytes.Repeat([]byte{2, 7, 5, 255, 6, 255, 2, 8, 4, 0, 7, 1}, 10))
	f.Add(sealTrimScript)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		for _, segSize := range []int64{4, 64} {
			if _, err := driveLogAgainstModel(script, segSize); err != nil {
				t.Fatalf("segSize %d: %v", segSize, err)
			}
		}
	})
}

// streamAllocPerMessage runs one producer/consumer/committer through a
// cluster on the virtual clock — 1024-message publishes, fetch, commit,
// persist (the trim instant) — and returns the Go heap bytes and the heap
// objects allocated per message after a warm-up of two segments per
// partition.
func streamAllocPerMessage(t *testing.T, shards, rf int) (bytes, mallocs float64) {
	t.Helper()
	const (
		segSize = 1024
		parts   = 2
		warm    = 2 * segSize * parts
		total   = warm + 32*segSize*parts
	)
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: shards, Replication: rf, SegmentSize: segSize,
		AppendCost: time.Microsecond, FetchLatency: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 64)
	values := make([][]byte, segSize)
	for i := range values {
		values[i] = payload
	}
	ps, cursor := make([]int, parts), make([]int64, parts)
	for p := range ps {
		ps[p] = p
		c.Offsets().Save("g", "t", p, 0)
	}
	var ms runtime.MemStats
	var before, beforeN uint64
	for sent, consumed := 0, 0; consumed < total; {
		if sent < total {
			if err := c.PublishValues(ctx, "t", values); err != nil {
				t.Fatal(err)
			}
			sent += len(values)
		}
		for consumed < sent {
			j, msgs, err := c.FetchOrWait(ctx, "t", ps, cursor, 0, segSize)
			if err != nil {
				t.Fatal(err)
			}
			cursor[j] += int64(len(msgs))
			consumed += len(msgs)
			if err := c.Commit("t", ps[j], cursor[j]); err != nil {
				t.Fatal(err)
			}
			c.Offsets().Save("g", "t", ps[j], cursor[j])
		}
		if sent == warm {
			runtime.ReadMemStats(&ms)
			before, beforeN = ms.TotalAlloc, ms.Mallocs
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / float64(total-warm), float64(ms.Mallocs-beforeN) / float64(total-warm)
}

// TestReplicationAllocBudget keeps the replication tax's memory term
// beside the code that sets it: a caught-up follower refills its trimmed,
// never-viewed segments, so the replicated data plane may allocate at most
// 1.25× the bytes per message of the unreplicated one — the leader's
// segments plus park/wake churn. Before the segment lifecycle each
// follower allocated (and the runtime zeroed, and the collector scanned) a
// fresh segment per SegmentSize messages and the ratio read ≈ 2.7×.
//
// The count clause holds the other term: a park allocates nothing (the
// participant record is the parker, waiter lists keep their arrays, runners
// and calls re-arm one wait object), so what is left per batch is a
// publish's and a poll's own wait object and scratch, and the segments.
// When every park minted a parker, a channel, an event and two one-slot
// lists this shape read 0.065 mallocs/msg on replication 3 (0.016 on
// replication 1); it reads 0.014 (0.010).
func TestReplicationAllocBudget(t *testing.T) {
	r1, n1 := streamAllocPerMessage(t, 1, 1)
	r3, n3 := streamAllocPerMessage(t, 3, 3)
	t.Logf("alloc bytes per message: replication-1 %.1f, replication-3 %.1f (%.2fx)", r1, r3, r3/r1)
	t.Logf("mallocs per message: replication-1 %.4f, replication-3 %.4f", n1, n3)
	if r3 > 1.25*r1 {
		t.Fatalf("replication-3 allocates %.1f B/msg, over 1.25x replication-1's %.1f B/msg", r3, r1)
	}
	if n3 > 0.02 {
		t.Fatalf("replication-3 makes %.4f mallocs/msg, over the 0.02 budget: a park is allocating again", n3)
	}
}

// TestAliasingBirthTakesAHeader holds the free list's two kinds apart: a
// follower's aliasing birth takes a listed header — here one its own
// trimmed alias listed — and leaves every listed root in place (taking one
// would drop its arrays), and the alias shares its owner's msgs and cum
// arrays, so the follower's byte sums are the leader's, never recomputed.
// A write of the follower's own then copies both arrays into a listed
// root's, whose header is listed.
func TestAliasingBirthTakesAHeader(t *testing.T) {
	const segSize = 4 // past no chain: every array is whole
	st, free := new(Stats), new(freeList)
	lead := &Log{segSize: segSize, stats: st, free: free}
	fol := &Log{segSize: segSize, stats: st, free: free}
	values, _ := valueBatch(4 * segSize)
	appendValues(lead, vclock.Epoch, values...)
	spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
	catchUp := func(n int) *segment {
		parts, _ := lead.pin(fol.end, n, nil)
		if !landRound(fol, parts, spans) {
			t.Fatal("the batch did not land")
		}
		return fol.segs[len(fol.segs)-1]
	}
	catchUp(segSize)
	catchUp(segSize)
	// The persist: both logs trim at the leader's mark, the follower first.
	lead.Commit(2 * segSize)
	fol.Trim(2 * segSize)
	lead.Trim(2 * segSize)
	roots := slices.Clone(free.roots)
	if len(roots) != 2 || len(free.headers) != 2 {
		t.Fatalf("after the trims: %d roots and %d headers listed, want 2 and 2", len(roots), len(free.headers))
	}
	header, born, refilled := free.headers[1], st.Born, st.Refilled
	seg := catchUp(segSize / 2)
	if seg != header || st.Born != born || st.Refilled != refilled+1 || !slices.Equal(free.roots, roots) {
		t.Fatalf("aliasing birth: took the last listed header %v, %d born, %d refilled, roots kept %v",
			seg == header, st.Born-born, st.Refilled-refilled, slices.Equal(free.roots, roots))
	}
	if own := lead.segs[0]; seg.owner != own || !seg.borrowed || &seg.msgs[:1][0] != &own.msgs[:1][0] || &seg.cum[:1][0] != &own.cum[:1][0] {
		t.Fatalf("the alias does not share its owner's arrays (owned by it %v, borrowed %v)", seg.owner == own, seg.borrowed)
	}
	if got, want := fol.BytesThrough(fol.end), lead.BytesThrough(fol.end); st.Copied != 0 || got != want {
		t.Fatalf("%d messages copied; the follower counts %d bytes through %d, the leader %d", st.Copied, got, fol.end, want)
	}
	root, msgs, cum := roots[1], &roots[1].msgs[:1][0], &roots[1].cum[:1][0]
	appendValues(fol, vclock.Epoch, values[0])
	if seg.borrowed || seg.owner != nil || &seg.msgs[:1][0] != msgs || &seg.cum[:1][0] != cum || st.CopyOnWrite != 1 {
		t.Fatalf("copy on write: borrowed %v, the listed root's msgs %v and cum %v, %d copies",
			seg.borrowed, &seg.msgs[:1][0] == msgs, &seg.cum[:1][0] == cum, st.CopyOnWrite)
	}
	if len(free.roots) != 1 || len(free.headers) != 2 || free.headers[1] != root {
		t.Fatalf("after the copy on write: %d roots and %d headers listed, the root's header last %v",
			len(free.roots), len(free.headers), free.headers[len(free.headers)-1] == root)
	}
	if got, want := fol.BytesThrough(fol.end), lead.BytesThrough(fol.end-1)+64; got != want {
		t.Fatalf("the follower counts %d bytes through %d after its write, want %d", got, fol.end, want)
	}
}

// BenchmarkAppendReplicated prices the follower append per message with
// a full-segment batch at a segment boundary, the runner's steady state:
// "refill" trims behind itself so every append refills the segment it
// listed (a caught-up follower copying), "cold" has each segment viewed
// first, so it dies by GC and every append allocates (what every follower
// append cost before segments were refilled), and "alias" hands the batch
// over as the runner does on a hot leader — the head of a full-size leader
// array and its byte sums — so the follower stores it by reference and
// refills only its segment header.
// Each log has a free list of its own; "alias-cold"'s leader and follower
// share one, as a cluster's logs do. "alias-cold" is the
// small end: a fresh follower catches up a cold leader holding 375
// messages — one chaos-scenario replica's load — in runner rounds (pin,
// landRound), aliasing each link of the leader's chain, so it allocates
// its links' segment headers and no Message and no byte sum.
func BenchmarkAppendReplicated(b *testing.B) {
	defer b.Run("alias-cold", func(b *testing.B) {
		const held = 375
		lead := &Log{segSize: 4096, stats: new(Stats), free: new(freeList)}
		values, _ := valueBatch(held)
		appendValues(lead, vclock.Epoch, values...)
		spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
		var parts []pinned
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := &Log{segSize: 4096, stats: lead.stats, free: lead.free}
			for at := int64(0); at < held; {
				var n int
				parts, n = lead.pin(at, replBatchMax, parts[:0])
				if !landRound(f, parts, spans) {
					b.Fatal("the batch did not land")
				}
				at += int64(n)
			}
		}
		b.StopTimer()
		if lead.stats.Copied != 0 {
			b.Fatalf("%d messages copied: the follower did not alias the chain", lead.stats.Copied)
		}
		msgs := float64(b.N) * held
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
		b.ReportMetric(float64(ms.TotalAlloc-before)/msgs, "B/msg")
	})
	const segSize = 4096
	for _, mode := range []string{"refill", "cold", "alias"} {
		b.Run(mode, func(b *testing.B) {
			l := &Log{segSize: segSize, stats: new(Stats), free: new(freeList)}
			payload := make([]byte, 64)
			batch := make([]Message, segSize)
			for i := range batch {
				batch[i] = Message{Topic: "t", Value: payload, Published: vclock.Epoch}
			}
			var src *segment // the runner's view of a leader array heads batch
			if mode == "alias" {
				// Payload-free messages: the leader's sums are all zero, as is
				// the follower's count, so borrow's count check holds for
				// every batch.
				for i := range batch {
					batch[i].Value = nil
				}
				src = &segment{msgs: batch, cum: make([]int64, segSize)}
			}
			spans := []plan.EpochSpan{{Start: 0, Epoch: 0}}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				end := int64(i+1) * segSize
				batch[0].Offset = end - segSize // the previous segment was trimmed: nothing aliases it
				if err := l.AppendReplicated(batch, src, spans); err != nil {
					b.Fatal(err)
				}
				if mode == "cold" {
					l.View(end-segSize, 1, false)
				}
				l.Trim(end)
			}
			b.StopTimer()
			// The first batch lands on the cold chain at offset 0 and is
			// copied; every later one is aliased.
			if mode == "alias" && l.stats.Copied > segSize {
				b.Fatalf("%d messages copied: the follower did not alias the batches", l.stats.Copied)
			}
			msgs := float64(b.N) * segSize
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(ms.TotalAlloc-before)/msgs, "B/msg")
		})
	}
}

// BenchmarkLogAppendCold prices the small end: a fresh default-size log
// takes the 375 messages one chaos-scenario replica holds, in one batch
// append. B/op is the number — what a touched partition costs per copy
// before it ever seals.
func BenchmarkLogAppendCold(b *testing.B) {
	values, idxs := valueBatch(375)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := &Log{segSize: 4096, stats: new(Stats), free: new(freeList)}
		l.AppendBatch("t", 0, batch{values: values}, idxs, vclock.Epoch, nil)
	}
}

// BenchmarkLogAppendHot prices the leader append per message in steady
// state across segment boundaries: 1000-message batch appends, so one in
// about four crosses a boundary mid-call, and each sealed segment is viewed
// (a consumer fetched it), committed and trimmed, so every boundary births
// a full-size segment — the bypass for the cold chain.
func BenchmarkLogAppendHot(b *testing.B) {
	const segSize = 4096
	l := &Log{segSize: segSize, stats: new(Stats), free: new(freeList)}
	values, idxs := valueBatch(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AppendBatch("t", 0, batch{values: values}, idxs, vclock.Epoch, nil)
		if sealed := l.end / segSize * segSize; sealed > l.first {
			l.View(sealed-segSize, 1, false)
			l.Commit(sealed)
			l.Trim(sealed)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idxs)), "ns/msg")
}

// valueBatch is n key-less messages sharing one 64-byte payload, as a
// producer's batches do, and the indices of all of them.
func valueBatch(n int) ([][]byte, []int32) {
	payload, values, idxs := make([]byte, 64), make([][]byte, n), make([]int32, n)
	for i := range values {
		values[i], idxs[i] = payload, int32(i)
	}
	return values, idxs
}

// TestColdChainAtDefaultSize pins the chain at the default 4096-message
// segment, where the model tests do not reach: links of 16, 32, 64, 128
// and 256 messages, then the last 3600 in a 4096-slot array; every offset
// found in place; and, once the segment is trimmed, the last link is the
// listed root the next segment but one refills.
func TestColdChainAtDefaultSize(t *testing.T) {
	const segSize = 4096
	l := &Log{segSize: segSize, stats: new(Stats), free: new(freeList)}
	values := make([][]byte, segSize+1)
	for i := range values {
		values[i] = []byte{byte(i)}
	}
	appendValues(l, vclock.Epoch, values...) // one call through every link and across the boundary
	var shape []string
	for _, seg := range l.segs {
		shape = append(shape, fmt.Sprintf("%d/%d", len(seg.msgs), cap(seg.msgs)))
	}
	if got := fmt.Sprint(shape); got != "[16/16 32/32 64/64 128/128 256/256 3600/4096 1/4096]" {
		t.Fatalf("arrays (held/capacity) %s", got)
	}
	for o := int64(0); o < l.end; o++ {
		if m := l.at(o); m.Offset != o || l.BytesThrough(o+1) != o+1 {
			t.Fatalf("offset %d reads offset %d, %d bytes through it", o, m.Offset, l.BytesThrough(o+1))
		}
	}
	l.Commit(l.end)
	if l.Trim(l.end) != segSize || len(l.free.roots) != 1 || cap(l.free.roots[0].msgs) != segSize {
		t.Fatalf("after the trim: first %d, %d roots listed", l.first, len(l.free.roots))
	}
	appendValues(l, vclock.Epoch, make([][]byte, segSize)...)
	if st := *l.stats; st.Born != 7 || st.Refilled != 1 {
		t.Fatalf("%d arrays born, %d refilled; want 7 and 1", st.Born, st.Refilled)
	}
}

// TestColdPartitionFootprint holds the small end of the range to the same
// standard as the hot one: a touched partition costs what it holds. 256
// partitions on a replication-3 cluster take one 16-message publish each
// and are drained; everything allocated from the publish to the last
// commit, divided by the 768 replica logs, must stay within 8 KB per log.
// When every log's first append allocated a full default segment it read
// ≈ 458 KB.
func TestColdPartitionFootprint(t *testing.T) {
	const (
		parts   = 256
		perPart = 16
		rf      = 3
	)
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: rf,
		AppendCost: time.Microsecond, FetchLatency: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 64)
	values := make([][]byte, parts*perPart) // key-less: round-robin, 16 per partition
	for i := range values {
		values[i] = payload
	}
	ps, cursor := make([]int, parts), make([]int64, parts)
	for p := range ps {
		ps[p] = p
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if err := c.PublishValues(ctx, "t", values); err != nil {
		t.Fatal(err)
	}
	for consumed := 0; consumed < len(values); {
		j, msgs, err := c.FetchOrWait(ctx, "t", ps, cursor, 0, perPart)
		if err != nil {
			t.Fatal(err)
		}
		cursor[j] += int64(len(msgs))
		consumed += len(msgs)
		if err := c.Commit("t", ps[j], cursor[j]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	perLog := float64(ms.TotalAlloc-before) / (parts * rf)
	t.Logf("%.0f B allocated per replica log holding %d messages", perLog, perPart)
	if perLog > 8<<10 {
		t.Fatalf("a cold replica log costs %.0f B, over the 8 KB budget", perLog)
	}
}

// TestViewsSurviveGrowthConcurrently is the cold chain's proof under the
// race detector: a consumer keeps every view it is handed and re-reads all
// of them after every fetch while a producer appends one message at a time
// through the partition's links (16, 32, 64 and 128 slots), some views
// aliasing a link and some copied across two. The re-read runs in a
// Compute body — the consumer's goroutine, off the token — and each
// round's producer is made runnable just before it, so Compute's token
// release hands the producer the token and its append (slot write, link
// birth) executes while the re-read is in flight.
func TestViewsSurviveGrowthConcurrently(t *testing.T) {
	const total = 200
	clock := vclocktest.Adopted(t)
	b := oneBroker(ClusterConfig{AppendCost: time.Microsecond, FetchLatency: time.Microsecond, Clock: clock})
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	publish := func(i int) {
		if _, err := b.Publish(ctx, "t", nil, []byte(fmt.Sprint("v", i))); err != nil {
			t.Error(err)
		}
	}
	publish(0)
	producers := vclock.NewGroup(clock)
	var held [][]Message
	for next, sent := int64(0), 1; next < total; {
		v, err := b.Fetch(ctx, "t", 0, next, 8)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, v)
		next += int64(len(v))
		if sent < total {
			i := sent
			sent++
			producers.Add(1)
			clock.Go(func() {
				defer producers.Done()
				publish(i)
			})
		}
		clock.Compute(ctx, func() {
			at := int64(0)
			for _, h := range held {
				for i := range h {
					if h[i].Offset != at || string(h[i].Value) != fmt.Sprint("v", at) {
						t.Errorf("held view of offset %d reads (%d, %q)", at, h[i].Offset, h[i].Value)
						return
					}
					at++
				}
			}
		})
	}
	producers.Wait()
	part := replicaLog(b, "t", 0, 0)
	b.mu.Lock()
	defer b.mu.Unlock()
	var caps []int
	for _, seg := range part.segs {
		caps = append(caps, cap(seg.msgs))
	}
	if fmt.Sprint(caps) != "[16 32 64 128]" {
		t.Fatalf("%d messages in arrays of %v slots, want [16 32 64 128]: the log did not chain", total, caps)
	}
}
