package streaming

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// The Cluster's Bus surface: the replicated-log data plane. Publishes
// append on each partition's leader shard and park until the batch is
// acknowledged on quorum (every full member holds it); fetches serve
// zero-copy views from the leader's log capped at the acknowledged
// watermark; commits route to the leader and advance the coordinator's
// cluster-truth mark. A leader handoff mid-call re-routes transparently:
// parked publishes re-append their un-acknowledged suffix to the new
// leader, parked fetches re-resolve the leader on wake.

// pubRec tracks one partition's sub-batch through a cluster publish:
// where it landed ([s, e) on the leader under `epoch`), which batch
// indices it carries, and the result slots it fills.
type pubRec struct {
	p     int
	idxs  []int32
	res   []Message // len(idxs) result slots, nil for PublishValues
	add   int64     // payload bytes of idxs
	s, e  int64
	epoch int
}

// Partitions returns a topic's partition count.
func (c *Cluster) Partitions(name string) (int, error) {
	t, err := c.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// topic resolves a topic's control-plane entry.
func (c *Cluster) topic(name string) (*fedTopic, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrBrokerClosed
	}
	t, ok := c.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// Publish appends one message through the replicated log, returning once
// it is acknowledged on quorum.
func (c *Cluster) Publish(ctx context.Context, topic string, key, value []byte) (Message, error) {
	out := make([]Message, 1)
	_, err := c.publish(ctx, topic, 1, func(int) ([]byte, []byte) { return key, value }, out)
	if err != nil {
		return Message{}, err
	}
	return out[0], nil
}

// PublishBatch appends a batch of (key, value) pairs, returning once
// every sub-batch is acknowledged on quorum. On an error mid-batch exactly
// the messages already appended are returned along with it (see
// Bus.PublishBatch).
func (c *Cluster) PublishBatch(ctx context.Context, topic string, kvs [][2][]byte) ([]Message, error) {
	out := make([]Message, len(kvs))
	n, err := c.publish(ctx, topic, len(kvs), func(i int) ([]byte, []byte) { return kvs[i][0], kvs[i][1] }, out)
	return out[:n], err
}

// PublishValues appends a key-less batch (the bulk-ingest fast path).
func (c *Cluster) PublishValues(ctx context.Context, topic string, values [][]byte) error {
	_, err := c.publish(ctx, topic, len(values), func(i int) ([]byte, []byte) { return nil, values[i] }, nil)
	return err
}

// pubScratch is the reusable workspace of one publish call: per-message
// partition assignment, per-partition byte totals, and the counting-sorted
// index order. Pooled so a steady-state publish allocates nothing beyond
// the log segments themselves.
type pubScratch struct {
	assign []int32 // partition per message
	order  []int32 // message indices grouped by partition, publish order kept
	fill   []int32 // per-partition counts, then cursors, then group ends
	bytes  []int64 // payload bytes per partition
}

var pubScratchPool = sync.Pool{New: func() any { return new(pubScratch) }}

// groupBatch assigns the n messages of one publish to t's partitions — by
// key hash, or off the topic's round-robin cursor for empty keys, under the
// cluster lock, which guards the cursor — and groups them: the batch is
// traversed once under the lock (assignment, counts and byte totals in
// the same pass), then a counting sort over pooled scratch yields each
// partition's indices in publish order without growing per-partition
// slices, so grouping costs one kv() call per message and zero
// steady-state allocations. The caller returns the scratch to the pool.
func (c *Cluster) groupBatch(t *fedTopic, n int, kv func(int) ([]byte, []byte)) *pubScratch {
	nparts := len(t.parts)
	sc := pubScratchPool.Get().(*pubScratch)
	if cap(sc.assign) < n {
		sc.assign = make([]int32, n)
		sc.order = make([]int32, n)
	}
	if cap(sc.fill) < nparts {
		sc.fill = make([]int32, nparts)
		sc.bytes = make([]int64, nparts)
	}
	sc.assign, sc.order = sc.assign[:n], sc.order[:n]
	sc.fill, sc.bytes = sc.fill[:nparts], sc.bytes[:nparts]
	clear(sc.fill)
	clear(sc.bytes)
	// In index order: consumer wake-up order downstream must not depend
	// on randomized iteration.
	c.mu.Lock()
	for i := 0; i < n; i++ {
		k, v := kv(i)
		var p int
		if len(k) > 0 {
			p = partitionOf(k, nparts)
		} else {
			p = t.rr % nparts
			t.rr++
		}
		sc.assign[i] = int32(p)
		sc.fill[p]++
		sc.bytes[p] += int64(len(k) + len(v))
	}
	c.mu.Unlock()
	// Counting sort: scatter message indices into order, grouped by
	// partition with publish order preserved inside each group. After the
	// scatter, fill[p] is the end of partition p's group.
	var sum int32
	for p, c := range sc.fill {
		sc.fill[p] = sum
		sum += c
	}
	for i, p := range sc.assign {
		sc.order[sc.fill[p]] = int32(i)
		sc.fill[p]++
	}
	return sc
}

// group returns partition p's share of the batch: where it begins in the
// grouped order (the count of messages destined for lower partitions),
// its batch indices, and its result slots when the publish materializes
// results.
func (sc *pubScratch) group(p int, out []Message) (lo int32, idxs []int32, slot []Message) {
	if p > 0 {
		lo = sc.fill[p-1]
	}
	if out != nil {
		slot = out[lo:sc.fill[p]]
	}
	return lo, sc.order[lo:sc.fill[p]], slot
}

func partitionOf(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// publish is the shared producer path: group the batch per partition
// (groupBatch, the cursor under the cluster lock), append each sub-batch
// on its partition's current leader, then park until every sub-batch is
// acknowledged on quorum. A handoff while parked re-appends the
// un-acknowledged suffix — the prefix below the handoff's truncation
// point survived on the promoted log — so a publish that returns nil has
// every message durable on every full member. Returns how many result
// slots are filled.
func (c *Cluster) publish(ctx context.Context, topicName string, n int, kv func(int) ([]byte, []byte), out []Message) (int, error) {
	if n == 0 {
		return 0, nil
	}
	t, err := c.topic(topicName)
	if err != nil {
		return 0, err
	}
	sc := c.groupBatch(t, n, kv)
	defer pubScratchPool.Put(sc)

	// Phase 1: append every sub-batch on its partition's current leader.
	recs := make([]pubRec, 0, 4)
	var ws waitSlot // the call's one wait object, re-armed per park
	var latest time.Time
	for p := range t.parts {
		lo, idxs, slot := sc.group(p, out)
		if len(idxs) == 0 {
			continue
		}
		r := pubRec{p: p, idxs: idxs, res: slot, add: sc.bytes[p]}
		if err := c.appendToLeader(ctx, &ws, t, &r, kv, &latest); err != nil {
			return int(lo), err
		}
		recs = append(recs, r)
	}

	// Phase 2: wait for quorum acknowledgement, re-appending across
	// handoffs.
	for ri := range recs {
		if err := c.awaitAcked(ctx, &ws, t, &recs[ri], kv, &latest); err != nil {
			return n, err
		}
	}

	// Phase 3: one modeled sleep to the slowest partition's append finish
	// (acknowledgement waits above advance virtual time on their own).
	if wait := latest.Sub(c.clock.Now()); wait > 0 && !c.clock.Sleep(ctx, wait) {
		return n, ctx.Err()
	}
	return n, nil
}

// appendToLeader appends one sub-batch on its partition's current leader
// and records where it landed (r.s, r.e, r.epoch; res slots, when present,
// receive the appended messages). One critical section resolves the leader
// and uses it, released only to park: on the control plane while the
// partition is fenced mid-handoff, on the leader's space list while the
// batch would overrun MaxInflightBytes — an idle partition always admits at
// least one batch, so a batch larger than the whole bound cannot deadlock.
// Every wake re-resolves, so a leader that died under a parked call is
// simply not the one the next pass finds.
func (c *Cluster) appendToLeader(ctx context.Context, ws *waitSlot, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	p := t.parts[r.p]
	var lp *partition
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		lp = p.logs[p.Members[0]]
		wait := &c.ctrl
		if p.availableAt.IsZero() {
			if limit := c.cfg.MaxInflightBytes; limit <= 0 || lp.Inflight() <= 0 || lp.Inflight()+r.add <= limit {
				break
			}
			wait = &lp.space
		}
		if !c.park(ctx, ws.arm(c.clock), wait) {
			return ctx.Err()
		}
	}
	// Read the clock after any backpressure wait: Published stamps the
	// instant the broker accepted the message. The caller sleeps once, to
	// the slowest partition's modeled finish, after all sub-batches land.
	now := c.clock.Now()
	finish := lp.nextFree
	if finish.Before(now) {
		finish = now
	}
	finish = finish.Add(time.Duration(len(r.idxs)) * c.cfg.AppendCost)
	lp.nextFree = finish
	if finish.After(*latest) {
		*latest = finish
	}
	r.s, r.epoch = lp.end, p.Epoch
	for k, i := range r.idxs {
		key, value := kv(int(i))
		m := lp.Append(t.name, r.p, key, value, now)
		if r.res != nil {
			r.res[k] = *m
		}
	}
	r.e = lp.end
	fireList(&lp.waiters)
	// Under RF=1 the append itself is the quorum: advance the watermark
	// now (with followers, the catch-up runners advance it).
	c.recomputeAckedLocked(t, p)
	c.mu.Unlock()
	return nil
}

// awaitAcked parks until a sub-batch's offset range is below the
// partition's acknowledged watermark. If a handoff intervened, the
// suffix above that handoff's truncation point was discarded with the
// deposed leader's log: re-append it to the new leader (the acknowledged
// prefix stays where it is) and keep waiting. Throughout, r.idxs[k] sits —
// or sat, until a handoff dropped it — at offset r.s+k under r.epoch.
func (c *Cluster) awaitAcked(ctx context.Context, ws *waitSlot, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	p := t.parts[r.p]
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		if p.Epoch == r.epoch {
			if p.Acked >= r.e {
				c.mu.Unlock()
				return nil
			}
			// Park until the watermark advances or the epoch moves; both fire
			// the partition's ackWait list.
			if !c.park(ctx, ws.arm(c.clock), &p.ackWait) {
				return ctx.Err()
			}
			continue
		}
		// The first handoff after our append decides what survived
		// (plan.Replicas.Kept). The watermark itself says nothing here: above
		// that handoff's truncation point it counts whatever was appended
		// since, ours or not. Drop the surviving prefix and re-append the rest.
		skip := p.Kept(r.epoch, r.s, r.e)
		c.mu.Unlock()
		if skip > 0 {
			r.idxs = r.idxs[skip:]
			if r.res != nil {
				r.res = r.res[skip:]
			}
		}
		if len(r.idxs) == 0 {
			return nil // the whole sub-batch survived
		}
		r.add = 0
		for _, i := range r.idxs {
			k, v := kv(int(i))
			r.add += int64(len(k) + len(v))
		}
		if err := c.appendToLeader(ctx, ws, t, r, kv, latest); err != nil {
			return err
		}
	}
}

// Fetch long-polls one partition (see FetchOrWait).
func (c *Cluster) Fetch(ctx context.Context, topic string, partition int, offset int64, max int) ([]Message, error) {
	_, msgs, err := c.FetchOrWait(ctx, topic, []int{partition}, []int64{offset}, 0, max)
	return msgs, err
}

// checkPoll validates one FetchOrWait call against a topic of nparts
// partitions and applies the defaults: max 512 when unset, start 0 when
// negative.
func checkPoll(topicName string, nparts int, parts []int, offsets []int64, start, max int) (int, int, error) {
	if len(parts) == 0 {
		return 0, 0, errors.New("streaming: FetchOrWait needs at least one partition")
	}
	if len(offsets) != len(parts) {
		return 0, 0, fmt.Errorf("streaming: FetchOrWait got %d offsets for %d partitions", len(offsets), len(parts))
	}
	for _, pi := range parts {
		if pi < 0 || pi >= nparts {
			return 0, 0, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
		}
	}
	if max <= 0 {
		max = 512
	}
	if start < 0 {
		start = 0
	}
	return start, max, nil
}

// FetchOrWait is the consumer hot path (see Bus.FetchOrWait): one
// modeled long-poll over a set of partitions, served from each
// partition's leader log and capped at the acknowledged watermark —
// consumers never see offsets that could be truncated by a handoff. A
// partition mid-handoff or under an injected stall parks its fetchers on
// the control plane; leadership changes re-resolve transparently.
func (c *Cluster) FetchOrWait(ctx context.Context, topicName string, parts []int, offsets []int64, start, max int) (int, []Message, error) {
	t, err := c.topic(topicName)
	if err != nil {
		return 0, nil, err
	}
	if start, max, err = checkPoll(topicName, len(t.parts), parts, offsets, start, max); err != nil {
		return 0, nil, err
	}
	if !c.clock.Sleep(ctx, c.cfg.FetchLatency) {
		return 0, nil, ctx.Err()
	}
	var ws waitSlot
	for {
		// One critical section per scan: each partition's leader is resolved,
		// checked against the watermark and registered on together, so no
		// advance can fall between a view check and its registration.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, nil, ErrBrokerClosed
		}
		var w *waiter // this scan's arming of ws, once a partition needs it
		for i := range parts {
			j := (start + i) % len(parts)
			p := t.parts[parts[j]]
			if p.stalled || !p.availableAt.IsZero() {
				continue // parks on the control plane, below
			}
			lp := p.logs[p.Members[0]]
			var batch []Message
			var oor error
			if offsets[j] < lp.first {
				// Retention trimmed past the requested position: a typed
				// error, not a silent snap — the caller decides whether
				// skipping to Oldest is acceptable for its semantics.
				oor = &OffsetOutOfRangeError{Topic: topicName, Partition: parts[j],
					Offset: offsets[j], Oldest: lp.first}
			} else if limit := p.Acked - offsets[j]; limit > 0 {
				batch = lp.View(offsets[j], int(min(int64(max), limit)))
			}
			if oor != nil || len(batch) > 0 {
				c.mu.Unlock()
				if w != nil {
					w.Fire() // mark registrations on earlier partitions dead
				}
				return j, batch, oor
			}
			if w == nil {
				w = ws.arm(c.clock)
			}
			registerEvent(&lp.waiters, w)
		}
		if w == nil {
			w = ws.arm(c.clock)
		}
		if !c.park(ctx, w, &c.ctrl) {
			return 0, nil, ctx.Err()
		}
	}
}

// Commit acknowledges consumption through an offset: clamped to the
// acknowledged watermark (uncommitted ≥ unacknowledged, always), applied
// on the leader's log (whose OnCommit is the one observable commit
// stream), then recorded as the coordinator's cluster-truth mark — the
// mark a promoted leader is restored to, so cursors survive handoffs.
// Applying it releases the committed bytes from the partition's in-flight
// account and wakes producers parked on backpressure — what lets
// MaxInflightBytes throttle producers to consumer speed. Commits are
// monotone: at or below the current mark nothing moves.
func (c *Cluster) Commit(topic string, partition int, through int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrBrokerClosed
	}
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return err
	}
	through = min(through, p.Acked)
	lp := p.logs[p.Members[0]]
	if delay := c.commitDelay; delay > 0 {
		// Injected commit skew (chaos): the acknowledgement is in flight for
		// `delay` of modeled time before it lands. Uncancellable — a skewed
		// commit still arrives, just late.
		c.mu.Unlock()
		c.clock.Sleep(context.Background(), delay)
		c.mu.Lock()
		if lp.closed {
			// The leader died mid-commit (FailShard closes the deposed leader's
			// copy; a commit must not land on a log nobody serves): the commit is
			// lost with it — the consumer re-delivers from its last durable
			// cursor, which is the at-least-once contract. Report closed only
			// when the cluster itself is gone.
			if c.closed {
				return ErrBrokerClosed
			}
			return nil
		}
	}
	if from, to, ok := lp.Log.Commit(through); ok {
		if c.cfg.OnCommit != nil {
			c.cfg.OnCommit(topic, partition, from, to)
		}
		// Coalesced space wakes: a parked producer needs inflight+add ≤ the
		// bound (or an idle partition), so while inflight still sits at or
		// above the bound every wake would be spurious — the producer would
		// re-check, re-register and park again, one scheduler round trip per
		// waiter per commit. Leave them parked until a commit makes progress
		// possible; they re-evaluate their own batch size on wake.
		if in := lp.Inflight(); in == 0 || in < c.cfg.MaxInflightBytes {
			fireList(&lp.space)
		}
	}
	if through > p.commit {
		p.commit = through
	}
	return nil
}

// Committed returns a partition's coordinator commit mark (the next
// uncommitted offset, as the cluster-truth cursor).
func (c *Cluster) Committed(topic string, partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrBrokerClosed
	}
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.commit, nil
}

// EndOffset returns the next offset awaiting quorum acknowledgement on a
// partition — the end of what a consumer can ever fetch, which is the
// end of the log as the Bus contract sees it.
func (c *Cluster) EndOffset(topic string, partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.Acked, nil
}
