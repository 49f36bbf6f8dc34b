// Package streaming implements Pilot-Streaming [32]: a partitioned-log
// message broker (Kafka-class semantics: topics, partitions, offsets,
// per-partition ordering) plus pilot-managed stream processors. The broker
// models per-partition append capacity as a queueing process in virtual
// time, so the throughput-vs-partitions and latency-vs-load shapes of the
// paper's streaming evaluation (E7/E8/E13) emerge from first principles.
//
// The data plane is built for million-message runs (DESIGN.md "Streaming
// data plane"): each partition is a segmented append-only log of
// fixed-size immutable segments, fetches return read-only views into
// those segments instead of copying, and all modeled accounting (append
// cost, long-poll RTT) is amortized per batch, so one PublishBatch or
// FetchOrWait costs one scheduler interaction on vclock.Virtual no matter
// how many messages it moves.
package streaming

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/vclock"
)

// Message is one record in a partitioned log.
//
// Messages returned by Fetch/FetchOrWait are read-only views into the
// broker's log segments, and Key/Value alias the byte slices the producer
// published: neither consumers nor producers may mutate them after the
// publish call returns (the zero-copy aliasing contract, DESIGN.md
// "Streaming data plane").
type Message struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	// Published is the modeled time the producer handed the message to the
	// broker (before broker-side queueing), so end-to-end latency includes
	// broker delay.
	Published time.Time
}

// BrokerConfig configures a Broker.
type BrokerConfig struct {
	// Name labels the broker.
	Name string
	// AppendCost is the modeled broker-side cost per message appended to a
	// partition; it bounds per-partition throughput at 1/AppendCost msg/s.
	// Default 100µs (≈10k msg/s per partition).
	AppendCost time.Duration
	// FetchLatency is the modeled cost per consumer long-poll round trip
	// (charged once per Fetch/FetchOrWait call, however many messages the
	// poll returns and however long it parks). Default 1ms.
	FetchLatency time.Duration
	// SegmentSize is the number of messages per log segment (default
	// 4096): the unit of offset→segment arithmetic, of a fetched view's
	// upper bound and of retention trimming. It is not a memory commitment
	// — a partition that has never filled a segment holds an array sized
	// to its contents (see Log). Fetched views are stable because a
	// published slot is never rewritten while a view can reach it.
	SegmentSize int
	// MaxInflightBytes bounds, per partition, the bytes published but not
	// yet committed (see Commit). When the bound is hit, publishes to that
	// partition block in modeled time until consumers commit — the
	// backpressure that keeps a lagging consumer group from being buried.
	// Zero disables backpressure (consumers that never commit, like plain
	// Processors, then run unthrottled).
	MaxInflightBytes int64
	// OnCommit, if set, observes every *applied* commit: the partition's
	// mark moved from `from` to `through`. Clamped and no-op commits are
	// not reported. Invoked under the partition lock, so callbacks see
	// per-partition commits in application order and must not call back
	// into the broker. The chaos invariant checker uses this to prove
	// consumer cursors never rewind.
	OnCommit func(topic string, partition int, from, through int64)
	// Clock supplies virtual time; defaults to a private vclock.Virtual.
	Clock vclock.Clock
}

// Broker is an in-process partitioned-log message broker.
type Broker struct {
	cfg BrokerConfig

	mu          sync.Mutex
	topics      map[string]*topic
	order       []*topic // creation order: deterministic iteration for Close
	closed      bool
	commitDelay time.Duration // injected commit skew (chaos), zero normally
}

type topic struct {
	name       string
	partitions []*partition
	// rr is the round-robin cursor for key-less publishes. It is shared
	// mutable state across all producers of the topic, advanced under the
	// broker lock while a batch's partitions are being assigned — so
	// placement is a pure function of the topic-wide publish order. That
	// order is seed-determined (producers are serialized by the executor's
	// token), which makes key-less placement bit-identical across
	// same-seed runs (TestKeylessPlacementDeterministicAcrossProducers).
	rr int
}

// partition is one Log plus what a broker needs around it: the lock that
// guards both, the modeled append capacity, the injected blackout and the
// two lists of parked callers.
type partition struct {
	mu sync.Mutex
	Log
	nextFree time.Time // modeled time the partition finishes current appends

	// down marks an injected unavailability window (chaos): while set,
	// consumers see no data past their offsets and park as if the log were
	// empty. Producers are unaffected — the blackout is on the fetch side.
	down bool

	waiters []waitReg // consumers parked until data arrives
	space   []waitReg // producers parked until in-flight bytes drop
}

// wakeFetchers fires the parked data waiters: the blackout lifted, or —
// on a cluster leader, whose consumers are gated by the acknowledged
// watermark rather than the log end — the watermark advanced.
func (p *partition) wakeFetchers() {
	p.mu.Lock()
	fireList(&p.waiters)
	p.mu.Unlock()
}

// ErrUnknownTopic is returned for operations on absent topics.
var ErrUnknownTopic = errors.New("streaming: unknown topic")

// ErrBrokerClosed is returned after Close.
var ErrBrokerClosed = errors.New("streaming: broker closed")

// ErrOffsetOutOfRange is the sentinel that errors.Is matches when a
// fetch asks for an offset below the partition's oldest retained one —
// retention trimmed the log past the requested position. The concrete
// error is *OffsetOutOfRangeError; errors.As extracts the coordinates,
// and Oldest is where a consumer should resume (the
// auto.offset.reset=earliest policy Group applies).
var ErrOffsetOutOfRange = errors.New("streaming: offset below oldest retained")

// OffsetOutOfRangeError reports a fetch below the retention floor.
type OffsetOutOfRangeError struct {
	Topic     string
	Partition int
	// Offset is the requested position; Oldest the oldest still-retained
	// offset (fetches from Oldest succeed).
	Offset, Oldest int64
}

// Error implements error.
func (e *OffsetOutOfRangeError) Error() string {
	return fmt.Sprintf("streaming: %s[%d] offset %d below oldest retained %d",
		e.Topic, e.Partition, e.Offset, e.Oldest)
}

// Is makes errors.Is(err, ErrOffsetOutOfRange) true.
func (e *OffsetOutOfRangeError) Is(target error) bool { return target == ErrOffsetOutOfRange }

// NewBroker creates a broker.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.Name == "" {
		cfg.Name = "broker"
	}
	if cfg.AppendCost <= 0 {
		cfg.AppendCost = 100 * time.Microsecond
	}
	if cfg.FetchLatency <= 0 {
		cfg.FetchLatency = time.Millisecond
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(vclock.Epoch)
	}
	return &Broker{cfg: cfg, topics: make(map[string]*topic)}
}

// Clock returns the broker's clock.
func (b *Broker) Clock() vclock.Clock { return b.cfg.Clock }

// CreateTopic creates a topic with n partitions. Creating an existing
// topic with the same partition count is a no-op.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("streaming: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if t, ok := b.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("streaming: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{name: name, partitions: make([]*partition, partitions)}
	for i := range t.partitions {
		t.partitions[i] = &partition{Log: Log{segSize: b.cfg.SegmentSize}}
	}
	b.topics[name] = t
	b.order = append(b.order, t)
	return nil
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return len(t.partitions), nil
}

func (b *Broker) topicByName(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBrokerClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// partRef resolves one partition of a topic, with the closed check and
// the bounds check every per-partition operation needs.
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

// Publish appends one message, selecting the partition by key hash (or
// round-robin for empty keys). It blocks, in modeled time, while the
// partition works through its backlog — per-partition capacity is the
// broker's bottleneck resource — and, under backpressure, while the
// partition's in-flight bytes exceed MaxInflightBytes.
func (b *Broker) Publish(ctx context.Context, topicName string, key, value []byte) (Message, error) {
	out := make([]Message, 1)
	_, err := b.publish(ctx, topicName, 1, func(int) ([]byte, []byte) { return key, value }, out)
	if err != nil {
		return Message{}, err
	}
	return out[0], nil
}

// PublishBatch appends a batch of (key, value) pairs. The modeled append
// cost is charged once per message, but each target partition takes one
// lock, one waiter wake, and the producer one modeled sleep for the whole
// batch — the amortization real producers use, and on vclock.Virtual ~N×
// fewer scheduler interactions than per-message publishes. On an error
// mid-batch (context cancellation, Close) exactly the messages already
// appended are returned along with it, grouped by partition.
func (b *Broker) PublishBatch(ctx context.Context, topicName string, kvs [][2][]byte) ([]Message, error) {
	out := make([]Message, len(kvs))
	n, err := b.publish(ctx, topicName, len(kvs), func(i int) ([]byte, []byte) { return kvs[i][0], kvs[i][1] }, out)
	return out[:n], err
}

// PublishValues appends a batch of key-less values without materializing
// per-message results — the bulk-ingest fast path (zero allocations per
// message beyond the log segments themselves). Accounting is identical to
// PublishBatch.
func (b *Broker) PublishValues(ctx context.Context, topicName string, values [][]byte) error {
	_, err := b.publish(ctx, topicName, len(values), func(i int) ([]byte, []byte) { return nil, values[i] }, nil)
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

// publish is the shared producer path: group the batch per partition,
// append each sub-batch (appendBatch), and finally sleep once until the
// slowest partition has worked through its backlog. Returns how many
// result slots are filled — on an error, the sub-batches appended before
// it.
func (b *Broker) publish(ctx context.Context, topicName string, n int, kv func(int) ([]byte, []byte), out []Message) (int, error) {
	if n == 0 {
		return 0, nil
	}
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	sc := groupBatch(&b.mu, &t.rr, len(t.partitions), n, kv)
	defer pubScratchPool.Put(sc)
	var ws waitSlot
	var latest time.Time
	for p, part := range t.partitions {
		lo, idxs, slot := sc.group(p, out)
		if len(idxs) == 0 {
			continue
		}
		_, _, finish, err := b.appendBatch(ctx, &ws, part, t.name, p, idxs, kv, sc.bytes[p], slot)
		if err != nil {
			return int(lo), err
		}
		if finish.After(latest) {
			latest = finish
		}
	}
	// Partitions absorb their sub-batches in parallel; the producer blocks
	// until the slowest partition has caught up (one sleep for the whole
	// batch, not one per message or per partition).
	if wait := latest.Sub(b.cfg.Clock.Now()); wait > 0 && !b.cfg.Clock.Sleep(ctx, wait) {
		return n, ctx.Err()
	}
	return n, nil
}

// appendBatch is the per-partition body of every publish, a standalone
// broker's and a cluster leader's alike: backpressure park, modeled
// append cost, the appends, consumer wake. idxs are the batch indices
// destined for this partition; kv resolves index→(key, value); add is
// their payload byte total; when out is non-nil it has len(idxs) slots
// and receives the appended messages. Returns the appended offset range
// [start, end) and the modeled finish time (the caller sleeps once, to
// the slowest partition, after all sub-batches land).
func (b *Broker) appendBatch(ctx context.Context, ws *waitSlot, part *partition, topicName string, pi int, idxs []int32, kv func(int) ([]byte, []byte), add int64, out []Message) (start, end int64, finish time.Time, err error) {
	clock := b.cfg.Clock
	// Backpressure: park (in modeled time) until the partition has room.
	// An idle partition always admits at least one batch, so a batch
	// larger than the whole bound cannot deadlock.
	part.mu.Lock()
	for limit := b.cfg.MaxInflightBytes; limit > 0 && part.Inflight() > 0 && part.Inflight()+add > limit; {
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
	// Read the clock after any backpressure wait: Published stamps the
	// instant the broker accepted the message.
	now := clock.Now()
	st := part.nextFree
	if st.Before(now) {
		st = now
	}
	finish = st.Add(time.Duration(len(idxs)) * b.cfg.AppendCost)
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

// checkPoll validates one FetchOrWait call against a topic of nparts
// partitions — the same contract on every Bus — and applies the defaults:
// max 512 when unset, start 0 when negative.
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

// Fetch returns up to max messages from a partition starting at offset,
// long-polling until at least one message is available, ctx is done, or
// the broker closes. One call charges the modeled fetch latency exactly
// once. The returned slice is a read-only view into the log (see Message).
func (b *Broker) Fetch(ctx context.Context, topicName string, partitionIdx int, offset int64, max int) ([]Message, error) {
	_, msgs, err := b.FetchOrWait(ctx, topicName, []int{partitionIdx}, []int64{offset}, 0, max)
	return msgs, err
}

// FetchOrWait is the consumer hot path: one modeled long-poll over a set
// of partitions (offsets[i] pairs with parts[i]). It charges FetchLatency
// exactly once — the poll's round trip — then returns the first available
// batch, parking (clock-aware, zero extra charge) until one of the
// partitions has data past its offset, ctx is done, or the broker closes.
// Scanning begins at parts[start%len(parts)], so callers rotate a cursor
// for deterministic fairness across their partitions. The returned index
// points into parts; the batch is a read-only view into the log and may
// be shorter than max at a segment boundary.
//
// Combining the poll and the park in one call is what eliminates the
// fetch-then-wait double charge: a message that arrives while the
// consumer is parked is delivered at its arrival instant, not one
// FetchLatency later.
func (b *Broker) FetchOrWait(ctx context.Context, topicName string, parts []int, offsets []int64, start, max int) (int, []Message, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, nil, err
	}
	if start, max, err = checkPoll(topicName, len(t.partitions), parts, offsets, start, max); err != nil {
		return 0, nil, err
	}
	if !b.cfg.Clock.Sleep(ctx, b.cfg.FetchLatency) {
		return 0, nil, ctx.Err()
	}
	var ws waitSlot
	for {
		var w *waiter // this round's arming of ws, once a partition needs it
		for i := 0; i < len(parts); i++ {
			j := (start + i) % len(parts)
			part := t.partitions[parts[j]]
			part.mu.Lock()
			if !part.down {
				if offsets[j] < part.first {
					// Retention trimmed past the requested position: a typed
					// error, not a silent snap — the caller decides whether
					// skipping to Oldest is acceptable for its semantics.
					oor := &OffsetOutOfRangeError{Topic: topicName, Partition: parts[j],
						Offset: offsets[j], Oldest: part.first}
					part.mu.Unlock()
					if w != nil {
						w.Fire()
					}
					return j, nil, oor
				}
				if batch := part.View(offsets[j], max); len(batch) > 0 {
					part.mu.Unlock()
					if w != nil {
						w.Fire() // mark registrations on earlier partitions dead
					}
					return j, batch, nil
				}
			}
			if w == nil {
				w = ws.arm(b.cfg.Clock)
			}
			registerEvent(&part.waiters, w)
			part.mu.Unlock()
		}
		// Checked after registration (see appendBatch): a Close whose sweep
		// ran before we registered is visible here, before we park.
		if b.isClosed() {
			w.Fire()
			return 0, nil, ErrBrokerClosed
		}
		if !w.Wait(ctx) {
			w.Fire()
			return 0, nil, ctx.Err()
		}
		if b.isClosed() {
			return 0, nil, ErrBrokerClosed
		}
	}
}

// Commit acknowledges consumption of a partition through offset `through`
// (exclusive: offsets below it are consumed). It releases the committed
// bytes from the partition's in-flight account and wakes producers parked
// on backpressure. Commits are monotone; committing at or below the
// current mark is a no-op. Committing is what lets MaxInflightBytes
// throttle producers to consumer speed — consumers that never commit
// (plain Processors) must run against a broker without backpressure.
func (b *Broker) Commit(topicName string, partitionIdx int, through int64) error {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return err
	}
	b.mu.Lock()
	delay := b.commitDelay
	b.mu.Unlock()
	if delay > 0 {
		// Injected commit skew (chaos): the acknowledgement is in flight for
		// `delay` of modeled time before it lands. Uncancellable — a skewed
		// commit still arrives, just late.
		b.cfg.Clock.Sleep(context.Background(), delay)
		// The broker may have died during the skew (FailShard closes the
		// deposed leader): a commit must not land on a log nobody serves.
		if b.isClosed() {
			return ErrBrokerClosed
		}
	}
	part.mu.Lock()
	from, through, ok := part.Log.Commit(through)
	if !ok {
		part.mu.Unlock()
		return nil
	}
	if b.cfg.OnCommit != nil {
		b.cfg.OnCommit(topicName, partitionIdx, from, through)
	}
	// Coalesced space wakes: a parked producer needs inflight+add ≤ the
	// bound (or an idle partition), so while inflight still sits at or
	// above the bound every wake would be spurious — the producer would
	// re-check, re-register and park again, one scheduler round trip per
	// waiter per commit. Leave them parked until a commit makes progress
	// possible; they re-evaluate their own batch size on wake.
	if in := part.Inflight(); in == 0 || in < b.cfg.MaxInflightBytes {
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
func (b *Broker) SetCommitDelay(d time.Duration) {
	b.mu.Lock()
	b.commitDelay = d
	b.mu.Unlock()
}

// SetPartitionDown opens (down=true) or closes an injected unavailability
// window on one partition. While down, consumers see no data past their
// offsets and park exactly as on an empty log; producers are unaffected.
// Clearing the window wakes parked fetchers so delivery resumes at the
// clearing instant. The chaos engine is the intended caller.
func (b *Broker) SetPartitionDown(topicName string, partitionIdx int, down bool) error {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return err
	}
	part.mu.Lock()
	part.down = down
	part.mu.Unlock()
	if !down {
		part.wakeFetchers()
	}
	return nil
}

// Trim discards log segments of one partition wholly below `below`,
// bounding resident memory under infinite streams (see Log.Trim: sealed
// segments only, never above the commit mark). Fetches under the new
// floor return OffsetOutOfRangeError. Returns the oldest retained offset
// after the trim. Callers own the policy — the Cluster trims below the
// low-watermark of persisted group offsets.
func (b *Broker) Trim(topicName string, partitionIdx int, below int64) (int64, error) {
	return b.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.Trim(below) })
}

// withLog runs f on one partition's log under the partition lock.
func (b *Broker) withLog(topicName string, partitionIdx int, f func(*Log) int64) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return f(&part.Log), nil
}

// OldestOffset returns a partition's retention floor: the oldest offset
// a fetch can still serve (zero until the first trim).
func (b *Broker) OldestOffset(topicName string, partitionIdx int) (int64, error) {
	return b.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.first })
}

// ResidentBytes returns the payload bytes a partition currently holds in
// memory — everything appended minus everything trimmed. This is the
// quantity the retention contract bounds.
func (b *Broker) ResidentBytes(topicName string, partitionIdx int) (int64, error) {
	return b.withLog(topicName, partitionIdx, (*Log).Resident)
}

// EndOffset returns the next offset to be written on a partition.
func (b *Broker) EndOffset(topicName string, partitionIdx int) (int64, error) {
	return b.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.end })
}

// Committed returns a partition's commit mark (the next uncommitted
// offset).
func (b *Broker) Committed(topicName string, partitionIdx int) (int64, error) {
	return b.withLog(topicName, partitionIdx, func(l *Log) int64 { return l.committed })
}

// InflightBytes returns a partition's published-but-uncommitted bytes —
// the quantity MaxInflightBytes bounds.
func (b *Broker) InflightBytes(topicName string, partitionIdx int) (int64, error) {
	return b.withLog(topicName, partitionIdx, (*Log).Inflight)
}

// Close rejects further operations and wakes blocked fetchers and
// backpressured producers. Topics are swept in creation order so wake-up
// order never depends on map iteration.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, t := range b.order {
		for _, p := range t.partitions {
			p.mu.Lock()
			fireList(&p.waiters)
			fireList(&p.space)
			p.mu.Unlock()
		}
	}
}

func (b *Broker) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

func partitionOf(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}
