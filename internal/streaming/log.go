package streaming

import (
	"bytes"
	"fmt"
	"math/bits"
	"time"

	"gopilot/internal/plan"
)

// Log is one partition's segmented append-only log: segments, retained
// range, epoch chain, byte sums and commit mark. It takes no lock — the
// caller holds Cluster.mu, which guards every copy of every log and the
// free list they share — so a leader's append, a follower's replicated
// append and a handoff's truncate are the same few methods, and the proof
// obligation behind zero-copy fetch and replication by reference
// (DESIGN.md "The Log") sits beside one type: a slot that has left the
// lock — in a kept view, an alias, a pinned runner batch, or a leased view
// until Trim passes it — is never rewritten, because a log writes only
// into arrays it owns and never replaces one by a larger copy. Aliasing
// extends a borrowed segment only by reslice, tail copies a borrowed tail
// before writing, Trim refills only a root nothing reaches, and a
// truncation into a viewed segment borrows it.
type Log struct {
	segSize int
	segs    []*segment
	free    *freeList // the cluster's retired roots, shared by all its logs (see Trim)

	// first is the oldest retained offset, end the next to be written;
	// segments are segSize arithmetic from first, index finds the arrays.
	first, end int64
	// committed: offsets below it are consumer-acknowledged; the bytes in
	// [committed, end) are the in-flight account backpressure bounds. Only a
	// leader's is the partition's: a follower's is placed at its promotion.
	committed int64
	// totalBytes is the cumulative payload ever appended (feeding cum);
	// trimmedCum is its part below first.
	totalBytes, trimmedCum int64

	// Epoch is the leadership epoch stamped onto Appends; the Cluster sets
	// it on the promoted leader at every handoff, so a deposed leader's
	// locally-acked suffix carries the old epoch. epochs is the span chain:
	// epochs[i] covers offsets from its Start to the next span's, one entry
	// per leadership change, kept across trims (divergence needs history).
	Epoch  int
	epochs []plan.EpochSpan

	stats *Stats // the owning cluster's counters, bumped under its lock
}

// segment is one array of the log, a whole segment or a link of the chain
// at offset 0 (nextCap), with its byte sums: cum[i] is the log-cumulative
// payload total through msgs[i]. The two arrays are owned, borrowed,
// copied on write and refilled as one. Appends write only past len(msgs),
// so a sub-slice handed out stays valid and immutable. viewed: a slice of
// msgs has left the lock (View, pin); kept: a kept view reached the array,
// which then dies by GC — any other may be refilled once Trim passes it and
// nothing reaches it (DESIGN.md "Segment lifecycle"). borrowed: the arrays
// are not this log's to write (aliased, or viewed and truncated into). An
// alias's owner is the root that owns them; a root's refs counts its
// aliases and pins, and retired is the free list it joins.
type segment struct {
	msgs                   []Message
	cum                    []int64
	viewed, kept, borrowed bool
	owner                  *segment
	refs                   int
	retired                *freeList
}

// freeList holds a cluster's retired segments awaiting rebirth, of two
// kinds: roots keep their msgs array of segSize and its cum, and headers
// hold no array — a trimmed alias, or a root whose arrays a copy on write
// took. A root joins only once nothing reaches its arrays, and a msgs
// array of segSize is made only when no root is listed, so live plus
// listed msgs arrays never exceed the cluster's peak of live ones; Close
// drops the list.
type freeList struct {
	roots, headers []*segment
}

// pop takes the segment listed last on one of a free list's lists, or nil.
func pop(list *[]*segment) (seg *segment) {
	if k := len(*list) - 1; k >= 0 {
		seg, (*list)[k], *list = (*list)[k], nil, (*list)[:k]
	}
	return seg
}

// release lets go of n aliases or pins on a root's arrays (0: Trim retires
// it) and lists a retired root once no kept view, alias or pin reaches them.
func (seg *segment) release(n int) {
	seg.refs -= n
	if f := seg.retired; f != nil && seg.refs == 0 && !seg.kept {
		seg.retired, f.roots = nil, append(f.roots, seg)
	}
}

// root is the segment that owns seg's array: its owner if it is an alias.
func (seg *segment) root() *segment {
	if seg.owner != nil {
		return seg.owner
	}
	return seg
}

// minSegCap is the room of a cold chain's first link.
const minSegCap = 16

// nextCap is the capacity of the array born at the log's end and its room,
// the messages it takes (cum's capacity). The segment at offset 0 is a
// chain: a first link of minSegCap, links doubling while the chain stays
// within an eighth of the segment, then a last link holding the rest in an
// array of segSize, which Trim can hand back to the free list (16, 32, 64,
// 128, 256, then 3600 in 4096; 16, then 48 in 64). A small log pays for
// what it holds, a larger one for a segment and an eighth, and neither
// copies to grow. Any other segment is one full array.
func (l *Log) nextCap() (array, room int) {
	if rel := int(l.end - l.first); l.chained() && rel < l.segSize {
		if room = rel + minSegCap; rel == 0 && room < l.segSize || rel+room <= l.segSize/8 {
			return room, room
		}
		return l.segSize, l.segSize - rel
	}
	return l.segSize, l.segSize
}

// chained reports whether segs begins with a chain: a log at offset 0.
func (l *Log) chained() bool { return l.first == 0 && l.segSize > minSegCap }

// index returns where offset o sits, segs[i].msgs[j] (or would, past the
// end): link k of a chain starts at minSegCap·(2^k-1), the last included.
func (l *Log) index(o int64) (i, j int) {
	rel := int(o - l.first)
	if !l.chained() {
		return rel / l.segSize, rel % l.segSize
	}
	last := max(1, bits.Len(uint(l.segSize/8/minSegCap+1))-1)
	if rel >= l.segSize {
		return last + rel/l.segSize, rel % l.segSize
	}
	i = min(bits.Len(uint(rel/minSegCap+1))-1, last)
	return i, rel - minSegCap*(1<<i-1)
}

// nextSegment is where every segment is born: an empty tail segment of
// nextCap — owned, at segSize a listed root, else a fresh one; or an alias
// of src, whose arrays it borrows: a listed header, else a fresh one.
func (l *Log) nextSegment(src *segment) *segment {
	array, room := l.nextCap()
	var seg *segment
	if src != nil {
		seg = pop(&l.free.headers)
	} else if array == l.segSize {
		seg = pop(&l.free.roots)
	}
	if seg == nil {
		seg = &segment{}
		l.stats.Born++
	} else {
		l.stats.Refilled++
	}
	if seg.owner = src; src != nil {
		seg.msgs, seg.cum = src.msgs, src.cum
		src.refs++
	}
	seg.own(array, room)
	seg.borrowed, seg.viewed = src != nil, false
	l.segs = append(l.segs, seg)
	return seg
}

// own empties seg's arrays to capacity array and room, making any it lacks
// (a root's cum is short when it was a chain's last link).
func (seg *segment) own(array, room int) {
	if cap(seg.msgs) == 0 {
		seg.msgs = make([]Message, 0, array)
	}
	if cap(seg.cum) < room {
		seg.cum = make([]int64, 0, room)
	}
	seg.msgs, seg.cum = seg.msgs[:0], seg.cum[:0:room]
}

// tail returns the tail segment with a free slot, the step each run of
// AppendBatch and of a copied AppendReplicated takes before writing; a
// missing or full tail means the next segment is born. A borrowed tail is
// first copied to owned arrays, at segSize a listed root's (copy on write),
// the log's only copy: the old ones are never written again.
func (l *Log) tail() *segment {
	if n := len(l.segs); n > 0 {
		seg := l.segs[n-1]
		if len(seg.msgs) < cap(seg.cum) {
			if seg.borrowed {
				msgs, cum := seg.msgs, seg.cum
				seg.msgs, seg.cum = nil, nil
				if cap(msgs) == l.segSize {
					if r := pop(&l.free.roots); r != nil {
						seg.msgs, seg.cum, r.msgs, r.cum = r.msgs, r.cum, nil, nil
						l.free.headers = append(l.free.headers, r)
					}
				}
				seg.own(cap(msgs), cap(cum))
				seg.msgs, seg.cum = append(seg.msgs, msgs...), append(seg.cum, cum...)
				l.stats.CopyOnWrite++
				if seg.owner != nil {
					seg.owner.release(1)
				}
				seg.borrowed, seg.owner = false, nil
			}
			return seg
		}
	}
	return l.nextSegment(nil)
}

// AppendBatch appends the messages b.at(i), i in idxs, in order, each
// built directly in its slot — every field copied exactly once — stamped
// published under the log's current Epoch, and copies them into res when
// it is non-nil (len(idxs) result slots). It lands one run per array:
// tail, then a tight loop writing the messages and their cum.
func (l *Log) AppendBatch(topic string, pi int, b batch, idxs []int32, published time.Time, res []Message) {
	if n := len(l.epochs); len(idxs) > 0 && (n == 0 || l.epochs[n-1].Epoch != l.Epoch) {
		l.epochs = append(l.epochs, plan.EpochSpan{Start: l.end, Epoch: l.Epoch})
	}
	for len(idxs) > 0 {
		seg := l.tail()
		k := len(seg.msgs)
		n := min(len(idxs), cap(seg.cum)-k)
		seg.msgs, seg.cum = seg.msgs[:k+n], seg.cum[:k+n]
		msgs, cum, o, total := seg.msgs[k:], seg.cum[k:], l.end, l.totalBytes
		for j, i := range idxs[:n] {
			key, value := b.at(i)
			m := &msgs[j]
			m.Topic, m.Partition, m.Offset, m.Key, m.Value, m.Published = topic, pi, o+int64(j), key, value, published
			total += int64(len(key) + len(value))
			cum[j] = total
		}
		res, l.totalBytes = res[copy(res, msgs):], total // a nil res takes no results
		idxs, l.end = idxs[n:], o+int64(n)               // the next array's capacity reads end
	}
}

// AppendReplicated appends a leader-streamed batch verbatim — offsets,
// payloads, stamps and the epoch spans it covers — at end (the runner
// discards torn batches: a gap is a protocol bug). A non-nil src says msgs
// is a part of the runner's batch (pin) in the array src owns: a part
// borrow can alias is stored by reference, anything else is copied.
func (l *Log) AppendReplicated(msgs []Message, src *segment, spans []plan.EpochSpan) error {
	if len(msgs) == 0 {
		return nil
	}
	if msgs[0].Offset != l.end {
		return fmt.Errorf("streaming: replicated append of %s[%d] at offset %d, follower end %d",
			msgs[0].Topic, msgs[0].Partition, msgs[0].Offset, l.end)
	}
	s := l.end
	// An aliased part is one reslice, its byte sums the leader's; a copied
	// one is one bulk copy (one write barrier) per one-segment run, then cum
	// in a tight loop.
	rest := msgs
	if seg := l.borrow(msgs, src); seg != nil {
		k, n := len(seg.msgs), len(msgs)
		seg.msgs, seg.cum = seg.msgs[:k+n], seg.cum[:k+n]
		l.totalBytes, l.end, rest = seg.cum[k+n-1], l.end+int64(n), nil
		l.stats.Aliased += uint64(n)
	}
	for len(rest) > 0 {
		seg := l.tail()
		k := len(seg.msgs)
		n := copy(seg.msgs[k:cap(seg.cum)], rest)
		seg.msgs, seg.cum = seg.msgs[:k+n], seg.cum[:k+n]
		for i, cum := 0, seg.cum[k:]; i < n; i++ {
			l.totalBytes += int64(len(rest[i].Key) + len(rest[i].Value))
			cum[i] = l.totalBytes
		}
		rest, l.end = rest[n:], l.end+int64(n) // the next array's capacity reads end
		l.stats.Copied += uint64(n)
	}
	for i, sp := range spans { // the spans overlapping [s, end)
		if n := len(l.epochs); sp.Start < l.end && (i+1 == len(spans) || spans[i+1].Start > s) &&
			(n == 0 || l.epochs[n-1].Epoch != sp.Epoch) {
			l.epochs = append(l.epochs, plan.EpochSpan{Start: max(sp.Start, s), Epoch: sp.Epoch})
		}
	}
	return nil
}

// borrow returns the segment a replicated part extends by reslice: the
// borrowed tail ending where msgs starts in the same array, or, past a
// full tail, a new alias of src if msgs heads src's arrays, which have the
// capacity and room the next segment would be born with — cold links
// included — and the byte counts agree: src's sum through msgs[0] is this
// log's total plus its payload. A recruit reset to the leader's count
// agrees (ResetTo); a log whose own history ends where the leader's
// retained range starts may not, and is copied. An alias's later parts
// agree because its sums are src's.
func (l *Log) borrow(msgs []Message, src *segment) *segment {
	if n := len(l.segs); src != nil && n > 0 {
		if seg, k := l.segs[n-1], len(l.segs[n-1].msgs); k < cap(seg.cum) {
			if seg.borrowed && &seg.msgs[:k+1][k] == &msgs[0] {
				return seg
			}
			return nil
		}
	}
	if array, room := l.nextCap(); src == nil || cap(msgs) != array || cap(src.cum) != room || &msgs[0] != &src.msgs[:1][0] ||
		src.cum[:1][0] != l.totalBytes+int64(len(msgs[0].Key)+len(msgs[0].Value)) {
		return nil
	}
	return l.nextSegment(src)
}

// span is the length of a view of up to max at offset: to its segment's end.
func (l *Log) span(offset int64, max int) int {
	return int(min(int64(max), l.end-offset, int64(l.segSize)-(offset-l.first)%int64(l.segSize)))
}

// View returns up to max messages at offset, read-only, within one
// segment (callers may see fewer at a boundary and loop); nil outside the
// retained range. Its capacity is its length, and it stays valid after the
// lock is released: a kept view (leased false) forever — its array is never
// refilled — and a leased one until Trim passes it, for a caller whose
// progress sets the trim floor. Across links of a chain it is a copy.
func (l *Log) View(offset int64, max int, leased bool) []Message {
	if offset >= l.end || offset < l.first {
		return nil
	}
	n := l.span(offset, max)
	i, j := l.index(offset)
	seg := l.segs[i]
	if len(seg.msgs)-j < n {
		l.stats.Spanned++
		out := make([]Message, n)
		for k := range out {
			out[k] = *l.at(offset + int64(k))
		}
		return out
	}
	seg.viewed = true
	if !leased {
		seg.root().kept = true
	}
	return seg.msgs[j : j+n : j+n]
}

// pinned is a part of a catch-up batch: a view of one array, keeping its
// capacity for a follower to alias, and its root, pinned (refs) so Trim
// cannot refill it while the runner holds it.
type pinned struct {
	msgs []Message
	src  *segment
}

// pin appends the runner's batch of up to max messages at offset (span,
// as View) to b, one pinned part per array it spans, and returns b and the
// batch's length.
func (l *Log) pin(offset int64, max int, b []pinned) ([]pinned, int) {
	n := l.span(offset, max)
	for o, end := offset, offset+int64(n); o < end; o += int64(len(b[len(b)-1].msgs)) {
		i, j := l.index(o)
		seg := l.segs[i]
		seg.viewed = true
		b = append(b, pinned{seg.msgs[j:min(len(seg.msgs), j+int(end-o))], seg.root()})
		b[len(b)-1].src.refs++
	}
	return b, n
}

// landRound ends a catch-up round: each part is appended to f in order —
// none if f is nil (a torn round) or an append failed — and unpinned after
// any alias of it is in place. Reports whether the whole batch landed.
func landRound(f *Log, batch []pinned, spans []plan.EpochSpan) bool {
	ok := f != nil
	for _, part := range batch {
		ok = ok && f.AppendReplicated(part.msgs, part.src, spans) == nil
		part.src.release(1)
	}
	return ok
}

// differsAt returns the first offset whose message is not at its offset or
// not leader's (a slot both reach is skipped): the replica oracle.
func (l *Log) differsAt(leader *Log) (int64, bool) {
	for o := l.first; o < l.end; o++ {
		m, lm := l.at(o), leader.at(o)
		if m.Offset != o || lm != nil && lm != m && (lm.Offset != o || !bytes.Equal(lm.Key, m.Key) ||
			!bytes.Equal(lm.Value, m.Value) || !lm.Published.Equal(m.Published)) {
			return o, true
		}
	}
	return 0, false
}

// at returns the retained message at offset o in place, or nil.
func (l *Log) at(o int64) *Message {
	if o < l.first || o >= l.end {
		return nil
	}
	i, j := l.index(o)
	return &l.segs[i].msgs[j]
}

// BytesThrough returns the cumulative payload bytes of offsets [0, o), o
// at most end, in one lookup; at or below the floor, the trimmed total
// (commit marks never sit below it, so no caller asks inside it).
func (l *Log) BytesThrough(o int64) int64 {
	if o <= l.first {
		return l.trimmedCum
	}
	i, j := l.index(o - 1)
	return l.segs[i].cum[j]
}

// Inflight returns the bytes published but not yet committed (what
// MaxInflightBytes bounds), derived so no mutator keeps an account.
func (l *Log) Inflight() int64 { return l.totalBytes - l.BytesThrough(l.committed) }

// Resident returns the payload bytes the log holds: appended minus trimmed.
func (l *Log) Resident() int64 { return l.totalBytes - l.trimmedCum }

// Commit advances the commit mark to through (exclusive), clamped to the
// end; at or below the current mark nothing moves and ok is false.
func (l *Log) Commit(through int64) (from, to int64, ok bool) {
	through = min(through, l.end)
	if through <= l.committed {
		return l.committed, l.committed, false
	}
	from, l.committed = l.committed, through
	return from, through, true
}

// SetCommitted places the commit mark, clamped to the retained range, in
// either direction: it follows another log's or the coordinator's.
func (l *Log) SetCommitted(mark int64) {
	l.committed = min(max(mark, l.first), l.end)
}

// Trim discards the segments wholly below `below`, which the caller clamps
// to the partition's commit mark (onSave), and the end. Only whole
// segments go (a chain with all its links), so the floor stays
// segment-aligned and the unsealed tail is never touched; the mark rises
// to the floor. Returns the oldest retained offset.
func (l *Log) Trim(below int64) int64 {
	k := (min(below, l.end) - l.first) / int64(l.segSize)
	if k <= 0 {
		return l.first
	}
	cut := l.first + k*int64(l.segSize)
	n, _ := l.index(cut)
	l.trimmedCum = l.BytesThrough(cut)
	// An alias lets go of its owner's arrays and is listed as a header; a
	// root of a segSize array (a chain's last link too) is retired, listed
	// once nothing reaches its arrays. The rest move down in segs's array,
	// keeping its capacity; the vacated slots are cleared.
	for _, seg := range l.segs[:n] {
		if seg.owner != nil {
			seg.owner.release(1)
			seg.msgs, seg.cum, seg.owner, seg.borrowed = nil, nil, nil, false
			l.free.headers = append(l.free.headers, seg)
		} else if cap(seg.msgs) == l.segSize {
			seg.retired = l.free
			seg.release(0)
		}
	}
	kept := copy(l.segs, l.segs[n:])
	clear(l.segs[kept:])
	l.segs, l.first, l.committed = l.segs[:kept], cut, max(l.committed, cut)
	return l.first
}

// TruncateTo discards the suffix at and above `to`, the repair half of
// divergence handling. A cut into a viewed segment marks it borrowed, so
// the dropped slots — which views and aliases may reach — are never
// overwritten. The commit mark and the epoch spans follow the cut.
func (l *Log) TruncateTo(to int64) {
	if to >= l.end {
		return
	}
	to = max(to, l.first)
	i, j := l.index(to)
	l.drop(i + 1)
	if i < len(l.segs) {
		seg := l.segs[i]
		seg.msgs, seg.cum = seg.msgs[:j], seg.cum[:j]
		seg.borrowed = seg.borrowed || seg.viewed
	}
	l.end = to
	l.totalBytes = l.BytesThrough(to)
	l.committed = min(l.committed, to)
	k := len(l.epochs)
	for k > 0 && l.epochs[k-1].Start >= to {
		k--
	}
	l.epochs = l.epochs[:k]
}

// ResetTo empties the log and repositions it at first, bytes the payload
// below it — a recruit's bootstrap behind the leader's retention floor,
// with the leader's count there, so that borrow may alias its sums.
func (l *Log) ResetTo(first, bytes int64) {
	l.drop(0)
	*l = Log{segSize: l.segSize, segs: l.segs, free: l.free, Epoch: l.Epoch, first: first, end: first, committed: first,
		totalBytes: bytes, trimmedCum: bytes, stats: l.stats}
}

// drop discards segs[i:], letting go of the arrays its aliases borrow.
func (l *Log) drop(i int) {
	for j := i; j < len(l.segs); j++ {
		if o := l.segs[j].owner; o != nil {
			o.release(1)
		}
		l.segs[j] = nil
	}
	l.segs = l.segs[:min(i, len(l.segs))]
}

// Snapshot reads the retained range and the epoch chain appended to
// buf[:0], which a hot caller (the runners) reuses.
func (l *Log) Snapshot(buf []plan.EpochSpan) (first, end int64, epochs []plan.EpochSpan) {
	return l.first, l.end, append(buf[:0], l.epochs...)
}
