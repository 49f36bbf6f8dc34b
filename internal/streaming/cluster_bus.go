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

// groupBatch assigns the n messages of one publish to nparts partitions
// — by key hash, or off the topic's round-robin cursor rr for empty keys,
// under mu, the lock that guards the cursor — and groups them: the batch
// is traversed once under the lock (assignment, counts and byte totals in
// the same pass), then a counting sort over pooled scratch yields each
// partition's indices in publish order without growing per-partition
// slices, so grouping costs one kv() call per message and zero
// steady-state allocations. The caller returns the scratch to the pool.
func groupBatch(mu *sync.Mutex, rr *int, nparts, n int, kv func(int) ([]byte, []byte)) *pubScratch {
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
	mu.Lock()
	for i := 0; i < n; i++ {
		k, v := kv(i)
		var p int
		if len(k) > 0 {
			p = partitionOf(k, nparts)
		} else {
			p = *rr % nparts
			*rr++
		}
		sc.assign[i] = int32(p)
		sc.fill[p]++
		sc.bytes[p] += int64(len(k) + len(v))
	}
	mu.Unlock()
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
	sc := groupBatch(&c.mu, &t.rr, len(t.parts), n, kv)
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

// appendToLeader appends one sub-batch on its partition's current
// leader, parking while the partition is fenced mid-handoff and
// re-routing if the leader dies underneath the call. Fills r.s, r.e and
// r.epoch; res slots (when present) receive the appended messages.
func (c *Cluster) appendToLeader(ctx context.Context, ws *waitSlot, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		p := t.parts[r.p]
		if !p.availableAt.IsZero() {
			w := ws.arm(c.clock)
			registerEvent(&c.ctrl, w)
			c.mu.Unlock()
			if !w.Wait(ctx) {
				w.Fire()
				return ctx.Err()
			}
			continue
		}
		leader, epoch := p.replicas[0], p.epoch
		c.mu.Unlock()
		if retry, err := c.appendOn(ctx, ws, leader, epoch, t, r, kv, latest); !retry {
			return err
		}
	}
}

// appendOn appends r's sub-batch on shard `leader`, resolved under epoch
// `epoch`, and records where it landed. retry reports that the shard died
// under the call: the caller re-resolves and tries its successor.
func (c *Cluster) appendOn(ctx context.Context, ws *waitSlot, leader, epoch int, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) (retry bool, err error) {
	b := c.shards[leader]
	var s, e int64
	var finish time.Time
	part, err := b.partRef(t.name, r.p)
	if err == nil {
		s, e, finish, err = b.appendBatch(ctx, ws, part, t.name, r.p, r.idxs, kv, r.add, r.res)
	}
	if err != nil {
		return errors.Is(err, ErrBrokerClosed) && !c.isClosed(), err
	}
	r.s, r.e, r.epoch = s, e, epoch
	if finish.After(*latest) {
		*latest = finish
	}
	// Under RF=1 the append itself is the quorum: advance the watermark
	// now (with followers, the catch-up runners advance it).
	c.mu.Lock()
	if !c.closed {
		c.recomputeAckedLocked(t, t.parts[r.p])
	}
	c.mu.Unlock()
	return false, nil
}

// awaitAcked parks until a sub-batch's offset range is below the
// partition's acknowledged watermark. If a handoff intervened, the
// suffix above that handoff's truncation point was discarded with the
// deposed leader's log: re-append it to the new leader (the acknowledged
// prefix stays where it is) and keep waiting.
func (c *Cluster) awaitAcked(ctx context.Context, ws *waitSlot, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		p := t.parts[r.p]
		if p.acked >= r.e {
			c.mu.Unlock()
			return nil
		}
		if p.epoch != r.epoch {
			// The truncation point of the *first* handoff after our append
			// bounds what survived; later handoffs only truncate at or
			// above it (the watermark is monotone).
			durable := p.ackedAtEpoch[r.epoch+1]
			if durable > r.e {
				durable = r.e
			}
			skip := durable - r.s
			if skip < 0 {
				skip = 0
			}
			if skip >= int64(len(r.idxs)) {
				// The whole sub-batch survived; wait out the new epoch.
				r.epoch = p.epoch
				c.mu.Unlock()
				continue
			}
			if !p.availableAt.IsZero() {
				w := ws.arm(c.clock)
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				if !w.Wait(ctx) {
					w.Fire()
					return ctx.Err()
				}
				continue
			}
			leader := p.replicas[0]
			newEpoch := p.epoch
			c.mu.Unlock()
			r.idxs = r.idxs[skip:]
			if r.res != nil {
				r.res = r.res[skip:]
			}
			r.add = 0
			for _, i := range r.idxs {
				k, v := kv(int(i))
				r.add += int64(len(k) + len(v))
			}
			if retry, err := c.appendOn(ctx, ws, leader, newEpoch, t, r, kv, latest); err != nil && !retry {
				return err
			}
			continue
		}
		// Park until the watermark advances or the epoch moves; both fire
		// the partition's ackWait list.
		w := ws.arm(c.clock)
		registerEvent(&p.ackWait, w)
		c.mu.Unlock()
		if !w.Wait(ctx) {
			w.Fire()
			return ctx.Err()
		}
		if c.isClosed() {
			return ErrBrokerClosed
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
	nparts, err := c.Partitions(topicName)
	if err != nil {
		return 0, nil, err
	}
	if start, max, err = checkPoll(topicName, nparts, parts, offsets, start, max); err != nil {
		return 0, nil, err
	}
	if !c.clock.Sleep(ctx, c.cfg.FetchLatency) {
		return 0, nil, ctx.Err()
	}
	ackedSeen := make([]int64, len(parts))
	var ws waitSlot
	for {
		var w *waiter // this round's arming of ws, once a partition needs it
		retry := false
		for i := 0; i < len(parts) && !retry; i++ {
			j := (start + i) % len(parts)
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				if w != nil {
					w.Fire()
				}
				return 0, nil, ErrBrokerClosed
			}
			_, p, _ := c.fedPartition(topicName, parts[j])
			blocked := p.stalled || !p.availableAt.IsZero()
			leader := p.replicas[0]
			acked := p.acked
			ackedSeen[j] = acked
			if blocked {
				if w == nil {
					w = ws.arm(c.clock)
				}
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			lp, err := c.shards[leader].partRef(topicName, parts[j])
			if err != nil {
				// The leader died between snapshot and use: treat as a
				// control change and re-resolve next round.
				if w == nil {
					w = ws.arm(c.clock)
				}
				c.mu.Lock()
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				retry = true
				continue
			}
			lp.mu.Lock()
			if offsets[j] < lp.first {
				// Retention trimmed past the requested position: a typed
				// error, not a silent snap — the caller decides whether
				// skipping to Oldest is acceptable for its semantics.
				oor := &OffsetOutOfRangeError{Topic: topicName, Partition: parts[j],
					Offset: offsets[j], Oldest: lp.first}
				lp.mu.Unlock()
				if w != nil {
					w.Fire()
				}
				return j, nil, oor
			}
			if limit := acked - offsets[j]; limit > 0 {
				m := max
				if int64(m) > limit {
					m = int(limit)
				}
				if batch := lp.View(offsets[j], m); len(batch) > 0 {
					lp.mu.Unlock()
					if w != nil {
						w.Fire() // mark registrations on earlier partitions dead
					}
					return j, batch, nil
				}
			}
			if w == nil {
				w = ws.arm(c.clock)
			}
			registerEvent(&lp.waiters, w)
			lp.mu.Unlock()
			c.mu.Lock()
			registerEvent(&c.ctrl, w)
			c.mu.Unlock()
		}
		// Close the register-vs-watermark window: the view check and the
		// registration run under different locks, so if any partition's
		// watermark moved past what this round's view check used, the
		// advance may have fired the waiter lists before we registered —
		// re-scan instead of parking. The executor's token already orders
		// participants; this keeps the guarantee at the lock level.
		if !retry {
			c.mu.Lock()
			for i := 0; i < len(parts); i++ {
				j := (start + i) % len(parts)
				if _, p, err := c.fedPartition(topicName, parts[j]); err == nil && p.acked > ackedSeen[j] {
					retry = true
					break
				}
			}
			c.mu.Unlock()
		}
		if retry {
			if w != nil {
				w.Fire()
			}
			continue
		}
		if c.isClosed() {
			w.Fire()
			return 0, nil, ErrBrokerClosed
		}
		if !w.Wait(ctx) {
			w.Fire()
			return 0, nil, ctx.Err()
		}
		if c.isClosed() {
			return 0, nil, ErrBrokerClosed
		}
	}
}

// Commit acknowledges consumption through an offset: clamped to the
// acknowledged watermark (uncommitted ≥ unacknowledged, always), applied
// on the leader's log (whose OnCommit is the one observable commit
// stream), then recorded as the coordinator's cluster-truth mark — the
// mark a promoted leader is restored to, so cursors survive handoffs.
func (c *Cluster) Commit(topic string, partition int, through int64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrBrokerClosed
	}
	_, p, err := c.fedPartition(topic, partition)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if through > p.acked {
		through = p.acked
	}
	leader := p.replicas[0]
	c.mu.Unlock()
	if err := c.shards[leader].Commit(topic, partition, through); err != nil {
		if errors.Is(err, ErrBrokerClosed) && !c.isClosed() {
			// The leader died mid-commit; the commit is lost with it — the
			// consumer re-delivers from its last durable cursor, which is
			// the at-least-once contract. Report closed only when the
			// cluster itself is gone.
			return nil
		}
		return err
	}
	c.mu.Lock()
	if _, p, err := c.fedPartition(topic, partition); err == nil && through > p.commit {
		p.commit = through
	}
	c.mu.Unlock()
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
	_, p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.commit, nil
}

// EndOffset returns the next offset awaiting quorum acknowledgement on a
// partition — the end of what a consumer can ever fetch, which is the
// end of the log as the Bus contract sees it.
func (c *Cluster) EndOffset(topic string, partition int) (int64, error) {
	return c.AckedOffset(topic, partition)
}
