package streaming

import (
	"fmt"
	"time"

	"gopilot/internal/plan"
)

// Log is one partition's segmented append-only log, and everything that
// is the log: the segments and the spare, the retained range, the epoch
// chain, the byte sums and the commit mark. It has no clock and takes no
// lock — the caller holds the lock that guards it (Cluster.mu, which guards
// every copy of every log) across every call — so a leader's append path, a
// follower's replicated append and the handoff's truncate are the same few
// methods on the same type, and the proof obligation behind zero-copy fetch
// (DESIGN.md "The Log") sits beside one type: a slot that has left the lock
// in a View is never rewritten. Three mutators could break it and each discharges it here:
// growth (tail) writes only to a new array, refill (Trim, nextSegment)
// takes only never-viewed segments, and truncation (TruncateTo) stays at
// or above every view handed out.
type Log struct {
	segSize int
	segs    []*segment
	spare   *segment // at most one trimmed, never-viewed segment awaiting refill
	// hot: the log has sealed a segment, so every later one is born at full
	// segSize; until then the tail segment is born small and grows (see tail).
	hot bool

	// first is the oldest retained offset, end the next one to be written.
	// Trim discards whole sealed segments, so segs[0] begins at first and
	// the segment holding offset o is segs[(o-first)/segSize]; ResetTo may
	// place first anywhere, indexing is relative to it.
	first, end int64
	// committed: offsets below it are consumer-acknowledged. The bytes in
	// [committed, end) are the in-flight account backpressure bounds.
	committed int64
	// totalBytes is the cumulative payload ever appended (it feeds
	// segment.cum); trimmedCum is the part of it below first, so
	// BytesThrough stays a two-lookup subtraction across trims.
	totalBytes, trimmedCum int64

	// Epoch is the leadership epoch stamped onto Appends; the Cluster sets
	// it on the promoted leader at every handoff (a log that never changes
	// leader stays at 0), which is what makes divergence detectable: a
	// deposed leader's locally-acked suffix carries the old epoch. epochs
	// is the compact span chain of the log: epochs[i] says offsets from
	// epochs[i].Start up to the next span's Start were appended under that
	// epoch. One entry per leadership change, retained across trims
	// (divergence detection needs history below the current end).
	Epoch  int
	epochs []plan.EpochSpan
}

// segment is a run of at most segSize messages of the log. Appends write
// only past len(msgs), and a full backing array is replaced by a larger
// copy, never extended in place (tail), so published entries are never
// rewritten: a sub-slice handed to a consumer remains valid and immutable
// while the writer keeps appending behind it, in the same array or the
// next. cum[i] is the log-cumulative payload byte total through msgs[i]
// (inclusive), which makes the bytes of any committed offset range a
// two-lookup subtraction instead of a per-message walk. viewed records
// that a slice of msgs has left the lock (set only by View): a viewed
// segment dies by GC, an unviewed one may be refilled (DESIGN.md "Segment
// lifecycle").
type segment struct {
	msgs   []Message
	cum    []int64
	viewed bool
}

// minSegCap is the smallest capacity a segment is born with.
const minSegCap = 16

// newSegment allocates both arrays at the same capacity; cum is only ever
// resliced in step with msgs.
func newSegment(size int) *segment {
	return &segment{msgs: make([]Message, 0, size), cum: make([]int64, 0, size)}
}

// nextSegment is where every segment of the log is born: it appends an
// empty tail segment — the spare Trim handed back if there is one, a
// fresh allocation otherwise — and returns it. A hot log's segments are
// born at full segSize; a log that has never sealed one pays for what the
// append creating the segment holds (want messages, floor minSegCap).
func (l *Log) nextSegment(want int) *segment {
	seg := l.spare
	if seg == nil {
		size := l.segSize
		if !l.hot {
			size = min(size, max(minSegCap, want))
		}
		seg = newSegment(size)
	} else {
		l.spare = nil
		seg.msgs, seg.cum = seg.msgs[:0], seg.cum[:0]
	}
	l.segs = append(l.segs, seg)
	return seg
}

// tail returns the tail segment with at least one free slot, for an append
// of want messages — the one step Append and AppendReplicated both take
// before writing. A tail that is missing or sealed (segSize messages: the
// log is hot from here on) means the next segment is born. A tail born
// small whose array is full grows ×2 (at least to fit want) by
// allocate-and-copy of the published prefix: nothing is ever written to
// the old array again, so views of it stay valid and immutable until the
// collector takes it.
func (l *Log) tail(want int) *segment {
	if n := len(l.segs); n > 0 {
		seg := l.segs[n-1]
		used := len(seg.msgs)
		if used < cap(seg.msgs) {
			return seg
		}
		if used < l.segSize {
			size := min(l.segSize, max(2*used, used+want))
			seg.msgs = append(make([]Message, 0, size), seg.msgs...)
			seg.cum = append(make([]int64, 0, size), seg.cum...)
			return seg
		}
		l.hot = true
	}
	return l.nextSegment(want)
}

// Append claims the next tail slot and builds the message directly in it
// — no intermediate Message values, so the hot publish loop copies each
// field exactly once — under the log's current Epoch. The returned pointer
// is only valid until the caller releases the lock.
func (l *Log) Append(topic string, pi int, key, value []byte, published time.Time) *Message {
	seg := l.tail(1)
	seg.msgs = seg.msgs[:len(seg.msgs)+1]
	m := &seg.msgs[len(seg.msgs)-1]
	m.Topic = topic
	m.Partition = pi
	m.Offset = l.end
	m.Key = key
	m.Value = value
	m.Published = published
	if n := len(l.epochs); n == 0 || l.epochs[n-1].Epoch != l.Epoch {
		l.epochs = append(l.epochs, plan.EpochSpan{Start: l.end, Epoch: l.Epoch})
	}
	l.end++
	l.totalBytes += int64(len(key) + len(value))
	seg.cum = append(seg.cum, l.totalBytes)
	return m
}

// AppendReplicated appends a leader-streamed batch verbatim: offsets,
// payloads, Published stamps and the epoch chain (spans, restricted to the
// appended range) all come from the leader. The batch must be contiguous
// with the end — the catch-up runner re-validates membership and epoch
// after its pacing sleep and discards torn batches, so a gap here is a
// protocol bug, not a runtime condition. The commit mark advances lazily
// toward the leader's, never past the log's own end.
func (l *Log) AppendReplicated(msgs []Message, spans []plan.EpochSpan, leaderCommitted int64) error {
	if len(msgs) == 0 {
		return nil
	}
	if msgs[0].Offset != l.end {
		return fmt.Errorf("streaming: replicated append of %s[%d] at offset %d, follower end %d",
			msgs[0].Topic, msgs[0].Partition, msgs[0].Offset, l.end)
	}
	s := l.end
	// One bulk copy (one write barrier) per one-segment run, then cum in
	// a tight loop over the run.
	for rest := msgs; len(rest) > 0; {
		seg := l.tail(len(rest))
		lo := len(seg.msgs)
		n := copy(seg.msgs[lo:cap(seg.msgs)], rest)
		seg.msgs, seg.cum = seg.msgs[:lo+n], seg.cum[:lo+n]
		for i, cum := 0, seg.cum[lo:]; i < n; i++ {
			l.totalBytes += int64(len(rest[i].Key) + len(rest[i].Value))
			cum[i] = l.totalBytes
		}
		rest = rest[n:]
	}
	l.end += int64(len(msgs))
	e := l.end
	for i, sp := range spans {
		spEnd := e
		if i+1 < len(spans) {
			spEnd = spans[i+1].Start
		}
		if spEnd <= s || sp.Start >= e {
			continue
		}
		start := sp.Start
		if start < s {
			start = s
		}
		if n := len(l.epochs); n == 0 || l.epochs[n-1].Epoch != sp.Epoch {
			l.epochs = append(l.epochs, plan.EpochSpan{Start: start, Epoch: sp.Epoch})
		}
	}
	if leaderCommitted > l.committed {
		l.SetCommitted(leaderCommitted)
	}
	return nil
}

// View returns up to max messages starting at offset as a read-only
// sub-slice of one segment (callers may see fewer than max at a segment
// boundary and loop); nil when offset is outside the retained range. The
// view stays valid after the caller releases the lock because published
// slots are never rewritten while a view can reach them (growth copies to
// a new array and leaves this one alone) — and, being the only way a slice
// of a segment leaves the lock, it marks the segment viewed so Trim never
// hands it back for refill.
func (l *Log) View(offset int64, max int) []Message {
	if offset >= l.end || offset < l.first {
		return nil
	}
	rel := offset - l.first
	seg := l.segs[rel/int64(l.segSize)]
	seg.viewed = true
	lo := int(rel % int64(l.segSize))
	hi := len(seg.msgs)
	if hi-lo > max {
		hi = lo + max
	}
	return seg.msgs[lo:hi:hi]
}

// BytesThrough returns the cumulative payload bytes of offsets [0, o), o
// at most end: two segment lookups, independent of how many messages the
// range spans. For o at or below the retention floor the trimmed prefix's
// total is the answer (commit marks never sit below the floor — Trim
// clamps to committed — so no caller asks inside the trimmed range).
func (l *Log) BytesThrough(o int64) int64 {
	if o <= l.first {
		return l.trimmedCum
	}
	i := o - 1 - l.first
	return l.segs[i/int64(l.segSize)].cum[i%int64(l.segSize)]
}

// Inflight returns the bytes published but not yet committed — the
// quantity MaxInflightBytes bounds. Derived, not stored: no append,
// truncate or reset has an account to keep in step.
func (l *Log) Inflight() int64 { return l.totalBytes - l.BytesThrough(l.committed) }

// Resident returns the payload bytes the log holds in memory: everything
// appended minus everything trimmed.
func (l *Log) Resident() int64 { return l.totalBytes - l.trimmedCum }

// Commit advances the commit mark to through (exclusive), clamped to the
// end. Commits are monotone: ok is false, and nothing moves, at or below
// the current mark.
func (l *Log) Commit(through int64) (from, to int64, ok bool) {
	if through > l.end {
		through = l.end
	}
	if through <= l.committed {
		return l.committed, l.committed, false
	}
	from, l.committed = l.committed, through
	return from, through, true
}

// SetCommitted places the commit mark at mark, clamped to the retained
// range, in either direction — replication and the handoff restore path,
// where the mark follows another log's or the coordinator's.
func (l *Log) SetCommitted(mark int64) {
	l.committed = min(max(mark, l.first), l.end)
}

// Trim discards the segments wholly below `below`, clamped to the commit
// mark so uncommitted data is never trimmed. Only sealed (full) segments
// go, so the floor stays segment-aligned and the unsealed tail is never
// touched. Returns the oldest retained offset after the trim.
func (l *Log) Trim(below int64) int64 {
	if below > l.committed {
		below = l.committed
	}
	segSize := int64(l.segSize)
	k := 0
	for k < len(l.segs) && l.first+int64(k+1)*segSize <= below && len(l.segs[k].msgs) == l.segSize {
		k++
	}
	if k == 0 {
		return l.first
	}
	l.hot = true // a sealed segment can leave here before tail ever sees it full
	l.trimmedCum = l.segs[k-1].cum[segSize-1]
	// Nil out the dropped heads before reslicing: the backing array
	// survives in segs, and a live pointer there would pin every trimmed
	// segment — exactly the memory the trim exists to release. One dropped
	// segment no view ever reached is kept as the spare for nextSegment.
	for i := 0; i < k; i++ {
		if l.spare == nil && !l.segs[i].viewed {
			l.spare = l.segs[i]
		}
		l.segs[i] = nil
	}
	l.segs = l.segs[k:]
	l.first += int64(k) * segSize
	return l.first
}

// TruncateTo discards the suffix at and above `to` — the repair half of
// divergence handling (truncate-to-watermark, then re-stream from the
// leader). Safe for zero-copy consumers: the cluster only ever hands out
// views below the acknowledged watermark, and every truncation point is
// at or above it, so no live view reaches the dropped (and later
// overwritten) slots. The commit mark clamps down with the log; epoch
// spans starting at or above `to` are dropped.
func (l *Log) TruncateTo(to int64) {
	if to >= l.end {
		return
	}
	if to < l.first {
		to = l.first
	}
	rel := to - l.first
	idx := int(rel / int64(l.segSize))
	for i := idx + 1; i < len(l.segs); i++ {
		l.segs[i] = nil
	}
	if idx < len(l.segs) {
		within := int(rel % int64(l.segSize))
		seg := l.segs[idx]
		seg.msgs, seg.cum = seg.msgs[:within], seg.cum[:within]
		l.segs = l.segs[:idx+1]
	}
	l.end = to
	l.totalBytes = l.BytesThrough(to)
	if l.committed > to {
		l.committed = to
	}
	k := len(l.epochs)
	for k > 0 && l.epochs[k-1].Start >= to {
		k--
	}
	l.epochs = l.epochs[:k]
}

// ResetTo empties the log and repositions it at first — the bootstrap
// for a recruit whose log starts behind the leader's retention floor.
func (l *Log) ResetTo(first int64) {
	*l = Log{segSize: l.segSize, spare: l.spare, hot: l.hot, Epoch: l.Epoch, first: first, end: first, committed: first}
}

// Snapshot reads the log's coordinates at one instant: the retained
// range, the commit mark, and the epoch chain appended to buf[:0] — a hot
// caller (the catch-up runners compare chains every round) reuses buf so
// the copy stops allocating once its capacity settles.
func (l *Log) Snapshot(buf []plan.EpochSpan) (first, end, committed int64, epochs []plan.EpochSpan) {
	return l.first, l.end, l.committed, append(buf[:0], l.epochs...)
}
