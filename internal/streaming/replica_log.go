package streaming

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
)

// Broker-side primitives of the per-shard replicated log. Every shard in
// a federated Cluster runs its own physical Broker; the cluster's
// replication plane drives these package-private hooks to stream
// acknowledged batches leader→follower, detect and repair diverged
// suffixes after a handoff, and bootstrap recruits. None of them charge
// modeled time themselves — pacing lives in the cluster's catch-up
// runners, where it belongs to the *link*, not the log.

// partRef resolves one partition of a topic, with bounds checking.
func (b *Broker) partRef(topicName string, pi int) (*partition, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return nil, err
	}
	if pi < 0 || pi >= len(t.partitions) {
		return nil, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
	}
	return t.partitions[pi], nil
}

// setEpoch sets the leadership epoch stamped onto subsequent local
// appends of one partition. The cluster bumps it on the promoted leader
// at every handoff, which is what makes divergence detectable: a deposed
// leader's locally-acked suffix carries the old epoch.
func (b *Broker) setEpoch(topicName string, pi, epoch int) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return
	}
	part.mu.Lock()
	part.curEpoch = epoch
	part.mu.Unlock()
}

// epochSpans returns a snapshot copy of a partition's epoch-span chain.
func (b *Broker) epochSpans(topicName string, pi int) []plan.EpochSpan {
	return b.epochSpansInto(topicName, pi, nil)
}

// epochSpansInto is epochSpans with a caller-owned scratch buffer: the
// snapshot is appended to buf[:0] so a hot caller (the catch-up runners
// compare chains every streamed batch) amortizes the copy to zero
// allocations once the buffer's capacity stabilizes. The returned slice
// must not be retained past the caller's next reuse of buf.
func (b *Broker) epochSpansInto(topicName string, pi int, buf []plan.EpochSpan) []plan.EpochSpan {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return nil
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return append(buf[:0], part.epochs...)
}

// replBatch snapshots one replication batch: up to maxMsgs messages
// starting at `from` as a zero-copy one-segment view, plus the
// partition's (first, end, committed) coordinates at the same instant.
// An empty batch with end > from means `from` fell below the retention
// floor (the follower must be reset); an empty batch with end == from
// means the follower is caught up. bytes is the batch's payload total,
// read off the leader's cum (what the runner paces the link by).
func (b *Broker) replBatch(topicName string, pi int, from int64, maxMsgs int) (msgs []Message, first, end, committed, bytes int64) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return nil, 0, 0, 0, 0
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	first, end, committed = part.first, part.end, part.committed
	if from < part.first || from >= part.end {
		return nil, first, end, committed, 0
	}
	msgs = part.view(from, maxMsgs, b.cfg.SegmentSize)
	segSize := int64(b.cfg.SegmentSize)
	bytes = part.bytesThrough(from+int64(len(msgs)), segSize) - part.bytesThrough(from, segSize)
	return msgs, first, end, committed, bytes
}

// appendReplicated appends a leader-streamed batch verbatim to a
// follower's log: offsets, payloads, Published stamps and the epoch
// chain all come from the leader. The batch must be contiguous with the
// follower's end — the catch-up runner re-validates membership and
// epoch after its pacing sleep and discards torn batches, so a gap here
// is a protocol bug, not a runtime condition. The follower's commit
// mark advances lazily toward the leader's (never past its own end)
// without firing OnCommit: the commit was already observed, exactly
// once, on the leader.
func (b *Broker) appendReplicated(topicName string, pi int, msgs []Message, spans []plan.EpochSpan, leaderCommitted int64) error {
	if len(msgs) == 0 {
		return nil
	}
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return err
	}
	segSize := b.cfg.SegmentSize
	part.mu.Lock()
	defer part.mu.Unlock()
	if msgs[0].Offset != part.end {
		return fmt.Errorf("streaming: replicated append of %s[%d] at offset %d, follower end %d",
			topicName, pi, msgs[0].Offset, part.end)
	}
	s := part.end
	// One bulk copy (one write barrier) per one-segment run, then cum in
	// a tight loop over the run.
	for rest := msgs; len(rest) > 0; {
		var seg *segment
		if len(part.segs) > 0 {
			seg = part.segs[len(part.segs)-1]
		}
		if seg == nil || len(seg.msgs) == segSize {
			seg = part.nextSegment(segSize)
		}
		lo := len(seg.msgs)
		n := copy(seg.msgs[lo:segSize], rest)
		seg.msgs, seg.cum = seg.msgs[:lo+n], seg.cum[:lo+n]
		for i, cum := 0, seg.cum[lo:]; i < n; i++ {
			part.totalBytes += int64(len(rest[i].Key) + len(rest[i].Value))
			cum[i] = part.totalBytes
		}
		rest = rest[n:]
	}
	part.end += int64(len(msgs))
	e := part.end
	// Merge the leader's epoch chain restricted to the appended range.
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
		if n := len(part.epochs); n == 0 || part.epochs[n-1].Epoch != sp.Epoch {
			part.epochs = append(part.epochs, plan.EpochSpan{Start: start, Epoch: sp.Epoch})
		}
	}
	if c := leaderCommitted; c > part.committed {
		if c > part.end {
			c = part.end
		}
		part.committed = c
	}
	part.inflight = part.totalBytes - part.bytesThrough(part.committed, int64(segSize))
	return nil
}

// truncateTo discards a partition's suffix at and above `to` — the
// repair half of divergence handling (truncate-to-watermark, then
// re-stream from the leader). Safe for zero-copy consumers: the cluster
// only ever hands out views below the acknowledged watermark, and every
// truncation point is at or above it, so no live view reaches the
// dropped (and later overwritten) slots. The commit mark clamps down
// with the log; epoch spans starting at or above `to` are dropped.
func (b *Broker) truncateTo(topicName string, pi int, to int64) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return
	}
	segSize := int64(b.cfg.SegmentSize)
	part.mu.Lock()
	defer part.mu.Unlock()
	if to >= part.end {
		return
	}
	if to < part.first {
		to = part.first
	}
	rel := to - part.first
	idx := int(rel / segSize)
	within := int(rel % segSize)
	for i := idx + 1; i < len(part.segs); i++ {
		part.segs[i] = nil
	}
	if idx < len(part.segs) {
		seg := part.segs[idx]
		seg.msgs = seg.msgs[:within]
		seg.cum = seg.cum[:within]
		part.segs = part.segs[:idx+1]
	}
	part.end = to
	part.totalBytes = part.bytesThrough(to, segSize)
	if part.committed > to {
		part.committed = to
	}
	part.inflight = part.totalBytes - part.bytesThrough(part.committed, segSize)
	k := len(part.epochs)
	for k > 0 && part.epochs[k-1].Start >= to {
		k--
	}
	part.epochs = part.epochs[:k]
}

// resetTo empties a partition's log and repositions it at `first` — the
// bootstrap for a recruit shard whose log starts behind the leader's
// retention floor. All segment indexing is relative to the floor, so
// `first` needs no alignment.
func (b *Broker) resetTo(topicName string, pi int, first int64) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return
	}
	part.mu.Lock()
	part.segs = nil
	part.first = first
	part.end = first
	part.committed = first
	part.totalBytes = 0
	part.trimmedCum = 0
	part.inflight = 0
	part.epochs = nil
	part.mu.Unlock()
}

// setCommitted moves a partition's commit mark to `mark` (clamped to
// the retained range) without firing OnCommit — the handoff restore
// path, where the coordinator re-applies its own commit mark to a
// promoted follower whose lazily-replicated local mark may trail it.
// The in-flight account is recomputed to match.
func (b *Broker) setCommitted(topicName string, pi int, mark int64) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return
	}
	segSize := int64(b.cfg.SegmentSize)
	part.mu.Lock()
	if mark < part.first {
		mark = part.first
	}
	if mark > part.end {
		mark = part.end
	}
	if mark != part.committed {
		part.committed = mark
		part.inflight = part.totalBytes - part.bytesThrough(mark, segSize)
	}
	part.mu.Unlock()
}

// wakeFetchers fires a partition's parked data waiters — the cluster
// calls this when the acknowledged watermark advances, because a parked
// consumer's fetchable range is gated by the watermark, not just by the
// leader's log end.
func (b *Broker) wakeFetchers(topicName string, pi int) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		return
	}
	part.mu.Lock()
	ws := part.waiters
	part.waiters = nil
	part.mu.Unlock()
	for _, w := range ws {
		w.Fire()
	}
}

// registerFetchWaiter parks w on a partition's data-waiter list (the
// cluster's catch-up runners use this to sleep until the leader's log
// grows).
func (b *Broker) registerFetchWaiter(topicName string, pi int, w *vclock.Event) {
	part, err := b.partRef(topicName, pi)
	if err != nil {
		w.Fire()
		return
	}
	part.mu.Lock()
	registerEvent(&part.waiters, w)
	part.mu.Unlock()
}

// clusterAppend is the leader-side append of one cluster publish: the
// per-partition body of Broker.publish (backpressure park, modeled
// append cost, consumer wake) exposed so the Cluster can route each
// sub-batch to the partition's current leader shard and re-drive it
// after a mid-publish handoff. idxs are the batch indices destined for
// this partition; kv resolves index→(key, value); add is their payload
// byte total; when out is non-nil it has len(idxs) slots and receives
// the appended messages. Returns the appended offset range [start, end)
// and the modeled finish time (the caller sleeps once, to the slowest
// partition, after all sub-batches land).
func (b *Broker) clusterAppend(ctx context.Context, topicName string, pi int, idxs []int32, kv func(int) ([]byte, []byte), add int64, out []Message) (start, end int64, finish time.Time, err error) {
	t, terr := b.topicByName(topicName)
	if terr != nil {
		return 0, 0, time.Time{}, terr
	}
	if pi < 0 || pi >= len(t.partitions) {
		return 0, 0, time.Time{}, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
	}
	part := t.partitions[pi]
	clock := b.cfg.Clock
	segSize := b.cfg.SegmentSize
	part.mu.Lock()
	for part.fencePub || (b.cfg.MaxInflightBytes > 0 && part.inflight > 0 && part.inflight+add > b.cfg.MaxInflightBytes) {
		w := vclock.NewEvent(clock)
		registerEvent(&part.space, w)
		part.mu.Unlock()
		// Same closed/canceled discipline as Broker.publish: re-check after
		// registering, fire on every abandoning exit (see registerEvent).
		if b.isClosed() {
			w.Fire()
			return 0, 0, time.Time{}, ErrBrokerClosed
		}
		if !w.Wait(ctx) {
			w.Fire()
			return 0, 0, time.Time{}, ctx.Err()
		}
		if b.isClosed() {
			return 0, 0, time.Time{}, ErrBrokerClosed
		}
		part.mu.Lock()
	}
	now := clock.Now()
	st := part.nextFree
	if st.Before(now) {
		st = now
	}
	finish = st.Add(time.Duration(len(idxs)) * b.cfg.AppendCost)
	part.nextFree = finish
	start = part.end
	for k, i := range idxs {
		k0, v0 := kv(int(i))
		m := part.appendInPlace(t.name, pi, k0, v0, now, segSize)
		if out != nil {
			out[k] = *m
		}
	}
	end = part.end
	part.inflight += add
	waiters := part.waiters
	part.waiters = nil
	part.mu.Unlock()
	for _, w := range waiters {
		w.Fire()
	}
	return start, end, finish, nil
}
