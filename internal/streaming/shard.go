package streaming

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/vclock"
)

// shard is one cluster shard's log host: the registry of the partition
// logs the shard holds a copy of, the per-partition append with its
// backpressure park, the commit path with its skew hook, and the
// accounting reads. Everything a client sees — routing to the leader, the
// quorum wait, the fetch path, the blackout — is the Cluster's.
type shard struct {
	cfg *ClusterConfig // the owning cluster's, defaults applied

	mu          sync.Mutex
	topics      map[string]*topic
	order       []*topic // creation order: deterministic iteration for Close
	closed      bool
	commitDelay time.Duration // injected commit skew (chaos), zero normally
}

type topic struct {
	name       string
	partitions []*partition
}

// partition is one Log plus what its host needs around it: the lock that
// guards both, the modeled append capacity and the two lists of parked
// callers.
type partition struct {
	mu sync.Mutex
	Log
	nextFree time.Time // modeled time the partition finishes current appends

	waiters []waitReg // consumers and catch-up runners parked until data arrives
	space   []waitReg // producers parked until in-flight bytes drop
}

// wakeFetchers fires the parked data waiters: consumers are gated by the
// acknowledged watermark rather than the log end, so the cluster wakes
// them when the watermark advances.
func (p *partition) wakeFetchers() {
	p.mu.Lock()
	fireList(&p.waiters)
	p.mu.Unlock()
}

// CreateTopic creates a topic with n partitions. Creating an existing
// topic with the same partition count is a no-op.
func (sh *shard) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("streaming: topic %q needs at least one partition", name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrBrokerClosed
	}
	if t, ok := sh.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("streaming: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{name: name, partitions: make([]*partition, partitions)}
	for i := range t.partitions {
		t.partitions[i] = &partition{Log: Log{segSize: sh.cfg.SegmentSize}}
	}
	sh.topics[name] = t
	sh.order = append(sh.order, t)
	return nil
}

// partRef resolves one partition of a topic, with the closed check and
// the bounds check every per-partition operation needs.
func (sh *shard) partRef(topicName string, pi int) (*partition, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, ErrBrokerClosed
	}
	t, ok := sh.topics[topicName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if pi < 0 || pi >= len(t.partitions) {
		return nil, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
	}
	return t.partitions[pi], nil
}

// appendBatch is the per-partition body of every publish: backpressure
// park, modeled append cost, the appends, consumer wake. idxs are the
// batch indices destined for this partition; kv resolves index→(key,
// value); add is their payload byte total; when out is non-nil it has
// len(idxs) slots and receives the appended messages. Returns the
// appended offset range [start, end) and the modeled finish time (the
// caller sleeps once, to the slowest partition, after all sub-batches
// land).
func (sh *shard) appendBatch(ctx context.Context, ws *waitSlot, part *partition, topicName string, pi int, idxs []int32, kv func(int) ([]byte, []byte), add int64, out []Message) (start, end int64, finish time.Time, err error) {
	clock := sh.cfg.Clock
	// Backpressure: park (in modeled time) until the partition has room.
	// An idle partition always admits at least one batch, so a batch
	// larger than the whole bound cannot deadlock.
	part.mu.Lock()
	for limit := sh.cfg.MaxInflightBytes; limit > 0 && part.Inflight() > 0 && part.Inflight()+add > limit; {
		w := ws.arm(clock)
		registerEvent(&part.space, w)
		part.mu.Unlock()
		// Re-check closed *after* registering: Close sets the flag before
		// sweeping the waiter lists, so a registration the sweep missed is
		// guaranteed to see the flag here instead of parking on an event
		// nobody will ever fire. Fire on every abandoning exit so
		// registerEvent recognizes the entry as dead — without that,
		// repeatedly canceled publishes against a full partition would grow
		// part.space without bound until the next Commit.
		if sh.isClosed() {
			w.Fire()
			return 0, 0, time.Time{}, ErrBrokerClosed
		}
		if !w.Wait(ctx) {
			w.Fire()
			return 0, 0, time.Time{}, ctx.Err()
		}
		if sh.isClosed() {
			return 0, 0, time.Time{}, ErrBrokerClosed
		}
		part.mu.Lock()
	}
	// Read the clock after any backpressure wait: Published stamps the
	// instant the broker accepted the message.
	now := clock.Now()
	st := part.nextFree
	if st.Before(now) {
		st = now
	}
	finish = st.Add(time.Duration(len(idxs)) * sh.cfg.AppendCost)
	part.nextFree = finish
	start = part.end
	for k, i := range idxs {
		key, value := kv(int(i))
		m := part.Append(topicName, pi, key, value, now)
		if out != nil {
			out[k] = *m
		}
	}
	end = part.end
	fireList(&part.waiters)
	part.mu.Unlock()
	return start, end, finish, nil
}

// waiter is a re-armable wait object: one vclock.Event that its owner — a
// replicate runner, a publish call, a FetchOrWait call — parks on again and
// again instead of minting an event per park; gen numbers its armings.
type waiter struct {
	*vclock.Event
	gen atomic.Uint64
}

// waitSlot holds a caller's waiter, made at its first park so that a call
// which never parks allocates nothing.
type waitSlot struct{ w *waiter }

// arm readies the slot's waiter for one more park — a new arming, unfired.
// Owner-only, between parks.
func (s *waitSlot) arm(clock vclock.Clock) *waiter {
	if s.w == nil {
		s.w = &waiter{Event: vclock.NewEvent(clock)}
	} else {
		s.w.gen.Add(1)
		s.w.Reset()
	}
	return s.w
}

// waitReg is one registration of a waiter on a waiter list, stamped with
// the arming it was made under. A park may register on several lists and
// is woken by one; its registrations on the others must die with it, or
// re-arming would revive them and their list's next fire would wake a
// later, unrelated park — an extra grant, a different schedule. So: dead
// iff the stamp is not the waiter's current arming or that arming has fired.
type waitReg struct {
	w   *waiter
	gen uint64
}

func (r waitReg) current() bool { return r.w.gen.Load() == r.gen }
func (r waitReg) live() bool    { return r.current() && !r.w.Fired() }

// registerEvent parks w's current arming on a waiter list (a partition's
// data or backpressure-space waiters, its ackWait, the cluster's control
// list), pruning dead registrations. Every exit path of a parked call fires
// its waiter — the abandoning ones too (context canceled, broker closed,
// poll satisfied by another partition) — and its next park re-arms it, so
// stale registrations are recognizably dead and swept here; otherwise skewed
// traffic or repeatedly canceled publishes would grow a list by one entry per
// wake-up until a fire cleared it. Caller holds the lock guarding the list.
func registerEvent(list *[]waitReg, w *waiter) {
	live := (*list)[:0]
	for _, old := range *list {
		if old.live() {
			live = append(live, old)
		}
	}
	*list = append(live, waitReg{w, w.gen.Load()})
}

// fireList fires every live registration in order and empties the list,
// keeping its array. Caller holds the lock guarding the list: the lock
// order is list lock (part.mu, c.mu) → Event.mu → Virtual.mu, with no
// reverse edge — Fire never calls back into streaming.
func fireList(list *[]waitReg) {
	for _, r := range *list {
		if r.current() {
			r.w.Fire()
		}
	}
	clear(*list)
	*list = (*list)[:0]
}

// Commit acknowledges consumption of a partition through offset `through`
// (exclusive: offsets below it are consumed). It releases the committed
// bytes from the partition's in-flight account and wakes producers parked
// on backpressure. Commits are monotone; committing at or below the
// current mark is a no-op. Committing is what lets MaxInflightBytes
// throttle producers to consumer speed — consumers that never commit
// (plain Processors) must run against a broker without backpressure.
func (sh *shard) Commit(topicName string, partitionIdx int, through int64) error {
	part, err := sh.partRef(topicName, partitionIdx)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	delay := sh.commitDelay
	sh.mu.Unlock()
	if delay > 0 {
		// Injected commit skew (chaos): the acknowledgement is in flight for
		// `delay` of modeled time before it lands. Uncancellable — a skewed
		// commit still arrives, just late.
		sh.cfg.Clock.Sleep(context.Background(), delay)
		// The shard may have died during the skew (FailShard closes the
		// deposed leader): a commit must not land on a log nobody serves.
		if sh.isClosed() {
			return ErrBrokerClosed
		}
	}
	part.mu.Lock()
	from, through, ok := part.Log.Commit(through)
	if !ok {
		part.mu.Unlock()
		return nil
	}
	if sh.cfg.OnCommit != nil {
		sh.cfg.OnCommit(topicName, partitionIdx, from, through)
	}
	// Coalesced space wakes: a parked producer needs inflight+add ≤ the
	// bound (or an idle partition), so while inflight still sits at or
	// above the bound every wake would be spurious — the producer would
	// re-check, re-register and park again, one scheduler round trip per
	// waiter per commit. Leave them parked until a commit makes progress
	// possible; they re-evaluate their own batch size on wake.
	if in := part.Inflight(); in == 0 || in < sh.cfg.MaxInflightBytes {
		fireList(&part.space)
	}
	part.mu.Unlock()
	return nil
}

// SetCommitDelay injects commit skew: every subsequent Commit holds the
// acknowledgement in flight for d of modeled time before applying it.
// Zero restores immediate commits. The chaos engine toggles this to
// stretch the window in which backpressure and rebalance decisions act on
// stale commit marks.
func (sh *shard) SetCommitDelay(d time.Duration) {
	sh.mu.Lock()
	sh.commitDelay = d
	sh.mu.Unlock()
}

// Trim discards log segments of one partition wholly below `below`,
// bounding resident memory under infinite streams (see Log.Trim: sealed
// segments only, never above the commit mark). Fetches under the new
// floor return OffsetOutOfRangeError. Returns the oldest retained offset
// after the trim. Callers own the policy — the Cluster trims below the
// low-watermark of persisted group offsets.
func (sh *shard) Trim(topicName string, partitionIdx int, below int64) (int64, error) {
	return sh.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.Trim(below) })
}

// withLog runs f on one partition's log under the partition lock.
func (sh *shard) withLog(topicName string, partitionIdx int, f func(*Log) int64) (int64, error) {
	part, err := sh.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return f(&part.Log), nil
}

// OldestOffset returns a partition's retention floor: the oldest offset
// a fetch can still serve (zero until the first trim).
func (sh *shard) OldestOffset(topicName string, partitionIdx int) (int64, error) {
	return sh.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.first })
}

// ResidentBytes returns the payload bytes a partition currently holds in
// memory — everything appended minus everything trimmed. This is the
// quantity the retention contract bounds.
func (sh *shard) ResidentBytes(topicName string, partitionIdx int) (int64, error) {
	return sh.withLog(topicName, partitionIdx, (*Log).Resident)
}

// EndOffset returns the next offset to be written on a partition.
func (sh *shard) EndOffset(topicName string, partitionIdx int) (int64, error) {
	return sh.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.end })
}

// Close rejects further operations and wakes blocked fetchers and
// backpressured producers. Topics are swept in creation order so wake-up
// order never depends on map iteration.
func (sh *shard) Close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	sh.closed = true
	for _, t := range sh.order {
		for _, p := range t.partitions {
			p.mu.Lock()
			fireList(&p.waiters)
			fireList(&p.space)
			p.mu.Unlock()
		}
	}
}

func (sh *shard) isClosed() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.closed
}
