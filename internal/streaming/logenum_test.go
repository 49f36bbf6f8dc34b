package streaming

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// The log's ownership rules, exhausted over small scopes: every canonical
// script of at most K steps is fed to logDriver, the decoder behind
// TestPartitionLogMatchesModel, so the small cases are enumerated instead
// of sampled. A script is canonical when each step's argument byte is the
// smallest that lands in the step's argument classes — append one, fill
// to a boundary or cross it; view the first or the last slot; trim below,
// at or past a boundary; truncate at the view floor or at end-1 — crossed
// with every follower act. Scripts are explored breadth first and a
// script whose two logs, models, views and pinned batch reach a state an
// earlier script already reached is not extended (stateKey): what it
// could do next, the earlier one does.

// argSet is a set of argument bytes.
type argSet [4]uint64

func (s *argSet) add(b int) { s[b/64] |= 1 << (b % 64) }
func (s argSet) and(o argSet) argSet {
	for i := range s {
		s[i] &= o[i]
	}
	return s
}

// lowest returns the smallest byte in s, or -1.
func (s argSet) lowest() int {
	for i, w := range s {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				return 64*i + b
			}
		}
	}
	return -1
}

// argsWhere collects the argument bytes ok accepts.
func argsWhere(ok func(arg int64) bool) argSet {
	var s argSet
	for b := 0; b < 256; b++ {
		if ok(int64(b)) {
			s.add(b)
		}
	}
	return s
}

// argClass is one class of a step's argument: the op it drives and the
// bytes that land in the class from the state the step starts in.
type argClass struct {
	op   byte
	args argSet
}

// boundaryDist is how many messages take the first log to its next
// boundary: the end of the array its next message lands in, a link of its
// chain or a whole segment.
func (d *logDriver) boundaryDist() int64 {
	n, seg := int64(len(d.lead.m.msgs)), d.segSize
	for end := int64(minSegCap); d.lead.m.first == 0 && n < seg; end = 2*end + minSegCap {
		if end >= seg || end > minSegCap && end > seg/8 { // the last link ends the segment
			end = seg
		}
		if n < end {
			return end - n
		}
	}
	return seg - n%seg
}

// leaderClasses are the first log's argument classes from d's state (the
// decoder is logDriver.step).
func (d *logDriver) leaderClasses() []argClass {
	m, seg := &d.lead.m, d.segSize
	n, dist := int64(len(m.msgs)), d.boundaryDist()
	var out []argClass
	add := func(op byte, ok func(arg int64) bool) {
		if s := argsWhere(ok); s.lowest() >= 0 {
			out = append(out, argClass{op, s})
		}
	}
	// Append: one, to the boundary, across it.
	for _, k := range []int64{1, dist, dist + 1} {
		add(0, func(a int64) bool { return 1+a%6 == k })
	}
	// A copied replicated batch of the same sizes, the commit mark staying
	// or, for a batch that fills a segment, following it.
	for _, k := range []int64{1, dist, dist + 1} {
		for _, c := range []int64{0, 7} {
			if c == 0 || k > 1 {
				add(2, func(a int64) bool { return 1+a%9 == k && a/9%8 == c })
			}
		}
	}
	if n > 0 {
		// View from the first slot to the segment's end, or the last slot.
		add(4, func(a int64) bool { return a%n == 0 && a/32 == 7 })
		add(4, func(a int64) bool { return a%n == n-1 && a/32 == 0 })
	}
	if hi := m.end() - m.committed; hi > 0 {
		// Commit one more message, or everything.
		for _, k := range []int64{1, hi} {
			add(5, func(a int64) bool { return a%(hi+2) == k })
		}
	}
	// Trim below the first boundary (nothing goes: the step carries the
	// follower's act alone), at it, or past the end.
	r := n + 2*seg
	add(6, func(a int64) bool { return a%r < seg })
	add(6, func(a int64) bool { return a%r == seg })
	add(6, func(a int64) bool { return a%r >= n+seg })
	// Reset at the end or one past it; move the mark back to the floor or
	// up to the end.
	for _, k := range []int64{0, 1} {
		add(7, func(a int64) bool { return a%4 == 0 && a/4%7 == k })
	}
	for _, k := range []int64{2, n + 2} {
		add(7, func(a int64) bool { return a%4 == 1 && a/4%(n+5) == k })
	}
	// Truncate at the view floor or at end-1.
	if lo := max(d.viewHi, m.first); lo < m.end() {
		for _, k := range []int64{0, m.end() - lo - 1} {
			add(7, func(a int64) bool { return a%4 >= 2 && a%(m.end()-lo) == k })
		}
	}
	return out
}

// followerClasses are the second log's argument classes, by act
// (logDriver.follow); no leader op moves the follower, so they are read
// from the state the step starts in too.
func (d *logDriver) followerClasses() []argClass {
	fm, seg := &d.fol.m, d.segSize
	all := argsWhere(func(int64) bool { return true })
	r := int64(len(fm.msgs)) + 2*seg
	return []argClass{
		{0, all},
		// A catch-up batch of one message, or as much as the view holds.
		{1, argsWhere(func(a int64) bool { return a%(2*seg) == 0 })},
		{1, argsWhere(func(a int64) bool { return 1+a%(2*seg) >= seg })},
		// Trim at the first boundary, or past the end.
		{2, argsWhere(func(a int64) bool { return a%r == seg })},
		{2, argsWhere(func(a int64) bool { return a%r >= int64(len(fm.msgs))+seg })},
		{3, all},
	}
}

// moves returns every canonical (op, arg) step from d's state.
func (d *logDriver) moves() [][2]byte {
	var out [][2]byte
	seen := map[[2]byte]bool{}
	for _, lc := range d.leaderClasses() {
		for _, fc := range d.followerClasses() {
			if a := lc.args.and(fc.args).lowest(); a >= 0 {
				mv := [2]byte{lc.op | fc.op<<3, byte(a)}
				if !seen[mv] {
					seen[mv] = true
					out = append(out, mv)
				}
			}
		}
	}
	return out
}

// stateKey names d's state up to what no later step can tell apart: the
// payload bytes and segment addresses. Segments and arrays are numbered
// in the order a walk of both logs meets them, and a held view by the
// array slot it starts at (or as detached, once no segment holds its
// array).
func (d *logDriver) stateKey() string {
	var b strings.Builder
	segIDs := map[*segment]int{}
	var order []*segment
	id := func(s *segment) int {
		if s == nil {
			return -1
		}
		if v, ok := segIDs[s]; ok {
			return v
		}
		segIDs[s] = len(segIDs)
		order = append(order, s)
		return segIDs[s]
	}
	for _, r := range []*replica{d.lead, d.fol} {
		fmt.Fprintf(&b, "L%d/%d/%d [", r.l.first, r.l.end, r.l.committed)
		for _, s := range r.l.segs {
			fmt.Fprintf(&b, "%d ", id(s))
		}
		b.WriteString("]")
	}
	for _, part := range d.inflight.parts {
		fmt.Fprintf(&b, "B%d", id(part.src))
	}
	// The free list is read from its top: the next birth of each kind
	// pops the last root listed.
	for _, list := range [][]*segment{d.free.roots, d.free.headers} {
		b.WriteString("F")
		for _, s := range list {
			fmt.Fprintf(&b, "%d ", id(s))
		}
	}
	// The walk closes over owners; arrays are numbered by head address.
	arrays := map[*Message]int{}
	for i := 0; i < len(order); i++ {
		s := order[i]
		arr := -1
		if cap(s.msgs) > 0 {
			head := &s.msgs[:1][0]
			if _, ok := arrays[head]; !ok {
				arrays[head] = len(arrays)
			}
			arr = arrays[head]
		}
		fmt.Fprintf(&b, "|s%d a%d %d/%d/%d v%v k%v b%v o%d r%d t%v dv%v",
			i, arr, len(s.msgs), cap(s.msgs), cap(s.cum), s.viewed, s.kept, s.borrowed,
			id(s.owner), s.refs, s.retired != nil, d.viewed[s])
	}
	where := func(p *Message) string {
		for _, s := range order {
			if c := cap(s.msgs); c > 0 {
				lo := uintptr(unsafe.Pointer(&s.msgs[:1][0]))
				at := uintptr(unsafe.Pointer(p))
				if at >= lo && at < lo+uintptr(c)*unsafe.Sizeof(Message{}) {
					return fmt.Sprintf("a%d@%d", arrays[&s.msgs[:1][0]], (at-lo)/unsafe.Sizeof(Message{}))
				}
			}
		}
		return "x"
	}
	// A detached held view can never change again, and two held views of
	// the same slots are one.
	views := map[string]bool{}
	for _, h := range d.held {
		if at := where(&h.got[0]); at != "x" {
			views[fmt.Sprintf("|h%d+%d:%s", h.want[0].offset, len(h.want), at)] = true
		}
	}
	keys := make([]string, 0, len(views))
	for k := range views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
	}
	if bt := d.inflight; bt.parts != nil {
		cur := bt.want[0].Offset >= d.lead.m.first && bt.want[len(bt.want)-1].Offset < d.lead.m.end() &&
			string(bt.want[0].Value) == string(d.lead.m.msgs[bt.want[0].Offset-d.lead.m.first].Value)
		fmt.Fprintf(&b, "|b%d+%d cur%v", bt.want[0].Offset, len(bt.want), cur)
		for _, part := range bt.parts {
			fmt.Fprintf(&b, ":%s+%d", where(&part.msgs[0]), len(part.msgs))
		}
	}
	fd, hi := firstDiff(&d.fol.m, &d.lead.m)
	// The bound's slack: how far the live arrays sit below their peak.
	fmt.Fprintf(&b, "|M%d/%d/%d %d/%d/%d vh%d d%d/%d s%d", d.lead.m.first, d.lead.m.end(), d.lead.m.committed,
		d.fol.m.first, d.fol.m.end(), d.fol.m.committed, d.viewHi, fd, hi, d.peakLive-len(d.live))
	return b.String()
}

// enumerateLogScripts runs every canonical script of at most depth steps
// after each root script at segSize, breadth first, and returns how many
// scripts ran and how many distinct states they reached, or the first
// script that fails (the shortest, as breadth first finds it).
func enumerateLogScripts(segSize int64, depth int, roots ...[]byte) (scripts, states int, failing []byte, err error) {
	seen := map[string]bool{}
	var frontier [][]byte
	for _, root := range roots {
		d := newLogDriver(segSize)
		if err := d.run(root); err != nil {
			return 0, 0, root, err
		}
		if key := d.stateKey(); !seen[key] {
			seen[key] = true
			frontier = append(frontier, root)
		}
	}
	for k := 0; k < depth && len(frontier) > 0; k++ {
		var next [][]byte
		for _, prefix := range frontier {
			d := newLogDriver(segSize)
			if err := d.run(prefix); err != nil {
				return scripts, len(seen), prefix, err // unreachable: prefix passed
			}
			for _, mv := range d.moves() {
				script := append(prefix[:len(prefix):len(prefix)], mv[0], mv[1])
				scripts++
				d := newLogDriver(segSize)
				if err := d.run(script); err != nil {
					return scripts, len(seen), script, err
				}
				if k+1 == depth {
					continue // the last level is run, not extended
				}
				if key := d.stateKey(); !seen[key] {
					seen[key] = true
					next = append(next, script)
				}
			}
		}
		frontier = next
	}
	return scripts, len(seen), nil, nil
}

// warmScript appends n messages to the first log as copied batches of up
// to nine and then has the follower catch up in one round, pinned and
// landed by alias: the chained scope's roots.
func warmScript(n int) []byte {
	var out []byte
	for ; n > 0; n -= 9 {
		out = append(out, 2, byte(min(n, 9)-1))
	}
	// Trim below the boundary (a no-op) while the follower pins, then lands,
	// a batch of up to 64.
	return append(out, 6|1<<3, 63, 6|1<<3, 63)
}

// TestPartitionLogExhaustive runs every canonical script of at most K
// steps at 2- and 4-message segments from the empty log, where scripts
// seal, trim, alias and refill within a few steps, and at 64, where the
// first segment is a chain (a 16-message link, then 48 in a 64-slot
// array), from the empty log and from logs holding 14, 30 or 62 messages,
// the follower's by alias. Each of the five ownership mutations it was
// written against (a
// kept array recycled, a pinned or aliased root refilled, a write into a
// borrowed tail, a truncation into a viewed segment left writable, a pin
// released before the alias is in place) fails it at segSize 2 with a
// script of three or four steps.
func TestPartitionLogExhaustive(t *testing.T) {
	for _, scope := range []struct {
		segSize int64
		depth   int
		roots   [][]byte
	}{
		{2, 4, [][]byte{nil}},
		{4, 3, [][]byte{nil}},
		{64, 2, [][]byte{nil, warmScript(14), warmScript(30), warmScript(62)}},
	} {
		t.Run(fmt.Sprintf("segSize=%d", scope.segSize), func(t *testing.T) {
			t.Parallel()
			for _, root := range scope.roots[1:] { // each warm root's follower aliases the whole chain
				if d, err := driveLogAgainstModel(root, scope.segSize); err != nil || d.fol.m.end() != d.lead.m.end() ||
					d.st.Aliased != uint64(d.lead.m.end()) || d.chainAlias == 0 {
					t.Fatalf("root %q: %d of %d aliased, %d links, err %v", root, d.st.Aliased, d.lead.m.end(), d.chainAlias, err)
				}
			}
			scripts, states, failing, err := enumerateLogScripts(scope.segSize, scope.depth, scope.roots...)
			if err != nil {
				t.Fatalf("script %q fails: %v", failing, err)
			}
			t.Logf("depth %d: %d canonical scripts, %d distinct states", scope.depth, scripts, states)
		})
	}
}
