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
	"time"

	"gopilot/internal/plan"
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
	// 4096). A segment's backing array is allocated once at full capacity
	// and never reallocated, which is what makes fetched views stable.
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
	// Clock supplies virtual time; defaults to vclock.Real.
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
	// placement is a pure function of the topic-wide publish order. On
	// vclock.Virtual that order is seed-determined, which makes key-less
	// placement bit-identical across same-seed runs
	// (TestKeylessPlacementDeterministicAcrossProducers); on real clocks
	// concurrent producers race for the cursor and placement is only
	// guaranteed to stay balanced, not reproducible.
	rr int
}

// segment is a fixed-size run of the partition log. msgs is allocated at
// full capacity once: appends never reallocate the backing array and
// sealed entries are never rewritten, so a sub-slice handed to a consumer
// remains valid and immutable while the writer keeps appending behind it.
// cum[i] is the partition-cumulative payload byte total through msgs[i]
// (inclusive), which makes the bytes of any committed offset range a
// two-lookup subtraction instead of a per-message walk. viewed records
// that a slice of msgs has left the partition lock (set only by view): a
// viewed segment dies by GC, an unviewed one may be refilled (DESIGN.md
// "Segment lifecycle").
type segment struct {
	msgs   []Message
	cum    []int64
	viewed bool
}

// newSegment allocates a segment with both arrays at full capacity in
// one struct-sized allocation each; capacities are exact so neither ever
// reallocates (the stable-backing-array invariant).
func newSegment(segSize int) *segment {
	return &segment{
		msgs: make([]Message, 0, segSize),
		cum:  make([]int64, 0, segSize),
	}
}

// nextSegment is where every segment of the log is born: it appends an
// empty tail segment — the spare Trim handed back if there is one, a
// fresh allocation otherwise — and returns it. Caller holds p.mu.
func (p *partition) nextSegment(segSize int) *segment {
	seg := p.spare
	if seg == nil {
		seg = newSegment(segSize)
	} else {
		p.spare = nil
		seg.msgs, seg.cum = seg.msgs[:0], seg.cum[:0]
	}
	p.segs = append(p.segs, seg)
	return seg
}

type partition struct {
	mu       sync.Mutex
	segs     []*segment
	spare    *segment  // at most one trimmed, never-viewed segment awaiting refill
	end      int64     // next offset to be written
	nextFree time.Time // modeled time the partition finishes current appends

	// curEpoch is the leadership epoch stamped onto new appends; the
	// federated Cluster bumps it on every leader handoff (standalone
	// brokers stay at epoch 0). epochs is the compact epoch-span chain of
	// the retained log: epochs[i] says offsets from epochs[i].Start up to
	// the next span's Start were appended under that epoch. One entry per
	// leadership change, so the chain stays tiny and is retained across
	// trims (divergence detection needs history below the current end).
	curEpoch int
	epochs   []plan.EpochSpan

	committed  int64 // offsets below this are consumer-acknowledged
	inflight   int64 // bytes in [committed, end): published, not yet committed
	totalBytes int64 // cumulative payload bytes ever appended (feeds segment.cum)

	// first is the oldest retained offset. Trim discards whole sealed
	// segments, so first is always segment-aligned: segs[0] begins at
	// first, and the segment holding offset o is segs[(o-first)/segSize].
	first int64
	// trimmedCum is the cumulative payload byte total through offset
	// first — the prefix the trimmed segments carried — so bytesThrough
	// stays a two-lookup subtraction across trims and resident bytes are
	// totalBytes - trimmedCum.
	trimmedCum int64

	// down marks an injected unavailability window (chaos): while set,
	// consumers see no data past their offsets and park as if the log were
	// empty. Producers are unaffected — the blackout is on the fetch side.
	down bool
	// fencePub parks producers (in the backpressure loop) regardless of
	// in-flight bytes: the write fence a federated cluster drops during a
	// leader handoff or while a severed replication link would leave a
	// publish unacknowledgeable. Clearing it wakes parked producers.
	fencePub bool

	waiters []*vclock.Event // consumers parked until data arrives
	space   []*vclock.Event // producers parked until inflight drops
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
		cfg.Clock = vclock.NewReal()
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
		t.partitions[i] = &partition{}
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

// Publish appends one message, selecting the partition by key hash (or
// round-robin for empty keys). It blocks, in modeled time, while the
// partition works through its backlog — per-partition capacity is the
// broker's bottleneck resource — and, under backpressure, while the
// partition's in-flight bytes exceed MaxInflightBytes.
func (b *Broker) Publish(ctx context.Context, topicName string, key, value []byte) (Message, error) {
	out := make([]Message, 0, 1)
	err := b.publish(ctx, topicName, 1, func(int) ([]byte, []byte) { return key, value }, &out)
	if err != nil {
		return Message{}, err
	}
	return out[0], nil
}

// PublishBatch appends a batch of (key, value) pairs. The modeled append
// cost is charged once per message, but each target partition takes one
// lock, one waiter wake, and the producer one modeled sleep for the whole
// batch — the amortization real producers use, and on vclock.Virtual ~N×
// fewer scheduler interactions than per-message publishes. On context
// cancellation mid-batch the messages already appended are returned along
// with the error.
func (b *Broker) PublishBatch(ctx context.Context, topicName string, kvs [][2][]byte) ([]Message, error) {
	out := make([]Message, 0, len(kvs))
	err := b.publish(ctx, topicName, len(kvs), func(i int) ([]byte, []byte) { return kvs[i][0], kvs[i][1] }, &out)
	return out, err
}

// PublishValues appends a batch of key-less values without materializing
// per-message results — the bulk-ingest fast path (zero allocations per
// message beyond the log segments themselves). Accounting is identical to
// PublishBatch.
func (b *Broker) PublishValues(ctx context.Context, topicName string, values [][]byte) error {
	return b.publish(ctx, topicName, len(values), func(i int) ([]byte, []byte) { return nil, values[i] }, nil)
}

// pubScratch is the reusable workspace of one publish call: per-message
// partition assignment, per-partition counts and byte totals, and the
// counting-sorted index order. Pooled so a steady-state publish allocates
// nothing beyond the log segments themselves.
type pubScratch struct {
	assign []int32 // partition per message
	order  []int32 // message indices grouped by partition, publish order kept
	counts []int32 // messages per partition
	fill   []int32 // counting-sort cursor, then per-partition group ends
	bytes  []int64 // payload bytes per partition
}

var pubScratchPool = sync.Pool{New: func() any { return new(pubScratch) }}

// publish is the shared producer path: assign partitions (round-robin
// cursor under the broker lock), then per target partition wait for
// backpressure space, append the sub-batch to the segmented log and wake
// consumers, and finally sleep once until the slowest partition has
// worked through its backlog.
//
// The batch is traversed once under the broker lock — assignment, counts
// and byte totals in the same pass — and a counting sort over pooled
// scratch yields each partition's indices in publish order without
// growing per-partition slices, so the grouping stage costs one kv() call
// per message and zero steady-state allocations.
func (b *Broker) publish(ctx context.Context, topicName string, n int, kv func(int) ([]byte, []byte), out *[]Message) error {
	if n == 0 {
		return nil
	}
	t, err := b.topicByName(topicName)
	if err != nil {
		return err
	}
	nparts := len(t.partitions)

	sc := pubScratchPool.Get().(*pubScratch)
	defer pubScratchPool.Put(sc)
	if cap(sc.assign) < n {
		sc.assign = make([]int32, n)
		sc.order = make([]int32, n)
	}
	if cap(sc.counts) < nparts {
		sc.counts = make([]int32, nparts)
		sc.fill = make([]int32, nparts)
		sc.bytes = make([]int64, nparts)
	}
	assign, order := sc.assign[:n], sc.order[:n]
	counts, fill, bytes := sc.counts[:nparts], sc.fill[:nparts], sc.bytes[:nparts]
	for p := range counts {
		counts[p], bytes[p] = 0, 0
	}

	// Group the batch per target partition, in index order: consumer
	// wake-up order below must not depend on randomized iteration.
	b.mu.Lock()
	for i := 0; i < n; i++ {
		k, v := kv(i)
		var p int
		if len(k) > 0 {
			p = partitionOf(k, nparts)
		} else {
			p = t.rr % nparts
			t.rr++
		}
		assign[i] = int32(p)
		counts[p]++
		bytes[p] += int64(len(k) + len(v))
	}
	b.mu.Unlock()

	// Counting sort: scatter message indices into order, grouped by
	// partition with publish order preserved inside each group. After the
	// scatter, fill[p] is the end of partition p's group.
	var sum int32
	for p := range counts {
		fill[p] = sum
		sum += counts[p]
	}
	for i := 0; i < n; i++ {
		p := assign[i]
		order[fill[p]] = int32(i)
		fill[p]++
	}

	clock := b.cfg.Clock
	segSize := b.cfg.SegmentSize
	var latest time.Time
	var lo int32
	for p := 0; p < nparts; p++ {
		idxs := order[lo:fill[p]]
		lo = fill[p]
		if len(idxs) == 0 {
			continue
		}
		part := t.partitions[p]
		add := bytes[p]
		// Backpressure: park (in modeled time) until the partition has
		// room. An idle partition always admits at least one batch, so a
		// batch larger than the whole bound cannot deadlock.
		part.mu.Lock()
		for part.fencePub || (b.cfg.MaxInflightBytes > 0 && part.inflight > 0 && part.inflight+add > b.cfg.MaxInflightBytes) {
			w := vclock.NewEvent(clock)
			registerEvent(&part.space, w)
			part.mu.Unlock()
			// Re-check closed *after* registering: Close sets the flag
			// before sweeping the waiter lists, so a registration the sweep
			// missed is guaranteed to see the flag here instead of parking
			// on an event nobody will ever fire. Fire on every abandoning
			// exit so registerEvent recognizes the entry as dead — without
			// that, repeatedly canceled publishes against a full partition
			// would grow part.space without bound until the next Commit.
			if b.isClosed() {
				w.Fire()
				return ErrBrokerClosed
			}
			if !w.Wait(ctx) {
				w.Fire()
				return ctx.Err()
			}
			if b.isClosed() {
				return ErrBrokerClosed
			}
			part.mu.Lock()
		}
		// Read the clock after any backpressure wait: Published stamps the
		// instant the broker accepted the message.
		now := clock.Now()
		start := part.nextFree
		if start.Before(now) {
			start = now
		}
		finish := start.Add(time.Duration(len(idxs)) * b.cfg.AppendCost)
		part.nextFree = finish
		if finish.After(latest) {
			latest = finish
		}
		for _, i := range idxs {
			k, v := kv(int(i))
			m := part.appendInPlace(t.name, p, k, v, now, segSize)
			if out != nil {
				*out = append(*out, *m)
			}
		}
		part.inflight += add
		waiters := part.waiters
		part.waiters = nil
		part.mu.Unlock()
		for _, w := range waiters {
			w.Fire()
		}
	}
	// Partitions absorb their sub-batches in parallel; the producer blocks
	// until the slowest partition has caught up (one sleep for the whole
	// batch, not one per message or per partition).
	if wait := latest.Sub(clock.Now()); wait > 0 {
		if !clock.Sleep(ctx, wait) {
			return ctx.Err()
		}
	}
	return nil
}

// appendInPlace claims the next tail-segment slot and builds the message
// directly in it — no intermediate Message values, so the hot publish
// loop copies each field exactly once. Segments are allocated at full
// SegmentSize capacity, so the backing array of a segment never moves and
// entries below the published length are immutable — the invariants
// behind zero-copy fetch views. The partition-cumulative byte total is
// recorded alongside the slot for O(1) commit accounting. Caller holds
// p.mu; the returned pointer is only valid until the lock is released.
func (p *partition) appendInPlace(topic string, pi int, key, value []byte, published time.Time, segSize int) *Message {
	var seg *segment
	if len(p.segs) > 0 {
		seg = p.segs[len(p.segs)-1]
	}
	if seg == nil || len(seg.msgs) == segSize {
		seg = p.nextSegment(segSize)
	}
	seg.msgs = seg.msgs[:len(seg.msgs)+1]
	m := &seg.msgs[len(seg.msgs)-1]
	m.Topic = topic
	m.Partition = pi
	m.Offset = p.end
	m.Key = key
	m.Value = value
	m.Published = published
	if n := len(p.epochs); n == 0 || p.epochs[n-1].Epoch != p.curEpoch {
		p.epochs = append(p.epochs, plan.EpochSpan{Start: p.end, Epoch: p.curEpoch})
	}
	p.end++
	p.totalBytes += int64(len(key) + len(value))
	seg.cum = append(seg.cum, p.totalBytes)
	return m
}

// bytesThrough returns the cumulative payload bytes of offsets [0, o):
// two segment lookups, independent of how many messages the range spans.
// For o at or below the retention floor the trimmed prefix's total is
// the answer (commit marks never sit below the floor — Trim clamps to
// committed — so no caller asks inside the trimmed range). Caller holds
// p.mu.
func (p *partition) bytesThrough(o, segSize int64) int64 {
	if o <= p.first {
		return p.trimmedCum
	}
	i := o - 1 - p.first
	return p.segs[i/segSize].cum[i%segSize]
}

// view returns up to max messages starting at offset as a read-only
// sub-slice of one segment (callers may see fewer than max at a segment
// boundary and loop). Returns nil when offset is at the end of the log.
// Offsets below the retention floor are the caller's problem (FetchOrWait
// turns them into OffsetOutOfRangeError before getting here). Caller
// holds p.mu; the returned view stays valid after release because
// segments never reallocate and sealed entries never change — and, being
// the only way a slice of a segment leaves the lock, it marks the segment
// viewed so Trim never hands it back for refill.
func (p *partition) view(offset int64, max, segSize int) []Message {
	if offset >= p.end || offset < p.first {
		return nil
	}
	rel := offset - p.first
	seg := p.segs[rel/int64(segSize)]
	seg.viewed = true
	lo := int(rel % int64(segSize))
	hi := len(seg.msgs)
	if hi-lo > max {
		hi = lo + max
	}
	return seg.msgs[lo:hi:hi]
}

// registerEvent parks w on one of a partition's waiter lists (data
// waiters or backpressure space waiters), pruning entries already fired.
// Every exit path of a parked call fires its event — including the
// abandoning ones (context canceled, broker closed, poll satisfied by
// another partition) — so stale registrations are recognizably dead and
// swept on the next registration. Without that, skewed traffic or
// repeatedly canceled publishes would grow a list by one event per
// wake-up until a publish, Commit or Close cleared it. Caller holds
// part.mu.
func registerEvent(list *[]*vclock.Event, w *vclock.Event) {
	live := (*list)[:0]
	for _, old := range *list {
		if !old.Fired() {
			live = append(live, old)
		}
	}
	*list = append(live, w)
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
	if len(parts) == 0 {
		return 0, nil, errors.New("streaming: FetchOrWait needs at least one partition")
	}
	if len(offsets) != len(parts) {
		return 0, nil, fmt.Errorf("streaming: FetchOrWait got %d offsets for %d partitions", len(offsets), len(parts))
	}
	for _, pi := range parts {
		if pi < 0 || pi >= len(t.partitions) {
			return 0, nil, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
		}
	}
	if max <= 0 {
		max = 512
	}
	if start < 0 {
		start = 0
	}
	if !b.cfg.Clock.Sleep(ctx, b.cfg.FetchLatency) {
		return 0, nil, ctx.Err()
	}
	for {
		var w *vclock.Event
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
				if batch := part.view(offsets[j], max, b.cfg.SegmentSize); len(batch) > 0 {
					part.mu.Unlock()
					if w != nil {
						w.Fire() // mark registrations on earlier partitions dead
					}
					return j, batch, nil
				}
			}
			if w == nil {
				w = vclock.NewEvent(b.cfg.Clock)
			}
			registerEvent(&part.waiters, w)
			part.mu.Unlock()
		}
		// Checked after registration (see publish): a Close whose sweep ran
		// before we registered is visible here, before we park.
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

// WaitAny parks until at least one of the given partitions has data past
// its offset (offsets[i] pairs with parts[i]), the broker closes, or ctx
// ends. It returns true when data may be available. Unlike FetchOrWait it
// charges nothing: it is the bare scheduling hook (consumer-group
// rebalancing interrupts parked polls through the same waiter machinery).
func (b *Broker) WaitAny(ctx context.Context, topicName string, parts []int, offsets []int64) (bool, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return false, err
	}
	if len(parts) == 0 {
		return false, errors.New("streaming: WaitAny needs at least one partition")
	}
	if len(offsets) != len(parts) {
		return false, fmt.Errorf("streaming: WaitAny got %d offsets for %d partitions", len(offsets), len(parts))
	}
	for _, pi := range parts {
		if pi < 0 || pi >= len(t.partitions) {
			return false, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
		}
	}
	w := vclock.NewEvent(b.cfg.Clock)
	for i, pi := range parts {
		part := t.partitions[pi]
		part.mu.Lock()
		if !part.down && part.end > offsets[i] {
			part.mu.Unlock()
			w.Fire()
			return true, nil
		}
		registerEvent(&part.waiters, w)
		part.mu.Unlock()
	}
	if b.isClosed() {
		w.Fire()
		return false, ErrBrokerClosed
	}
	if !w.Wait(ctx) {
		w.Fire()
		return false, ctx.Err()
	}
	if b.isClosed() {
		return false, ErrBrokerClosed
	}
	return true, nil
}

// Commit acknowledges consumption of a partition through offset `through`
// (exclusive: offsets below it are consumed). It releases the committed
// bytes from the partition's in-flight account and wakes producers parked
// on backpressure. Commits are monotone; committing at or below the
// current mark is a no-op. Committing is what lets MaxInflightBytes
// throttle producers to consumer speed — consumers that never commit
// (plain Processors) must run against a broker without backpressure.
func (b *Broker) Commit(topicName string, partitionIdx int, through int64) error {
	t, err := b.topicByName(topicName)
	if err != nil {
		return err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
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
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	if through > part.end {
		through = part.end
	}
	if through <= part.committed {
		part.mu.Unlock()
		return nil
	}
	segSize := int64(b.cfg.SegmentSize)
	freed := part.bytesThrough(through, segSize) - part.bytesThrough(part.committed, segSize)
	from := part.committed
	part.committed = through
	part.inflight -= freed
	if b.cfg.OnCommit != nil {
		b.cfg.OnCommit(topicName, partitionIdx, from, through)
	}
	// Coalesced space wakes: a parked producer needs inflight+add ≤ the
	// bound (or an idle partition), so while inflight still sits at or
	// above the bound every wake would be spurious — the producer would
	// re-check, re-register and park again, one scheduler round trip per
	// waiter per commit. Leave them parked until a commit makes progress
	// possible; they re-evaluate their own batch size on wake.
	var ws []*vclock.Event
	if part.inflight == 0 || part.inflight < b.cfg.MaxInflightBytes {
		ws = part.space
		part.space = nil
	}
	part.mu.Unlock()
	for _, w := range ws {
		w.Fire()
	}
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
	t, err := b.topicByName(topicName)
	if err != nil {
		return err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	part.down = down
	var ws []*vclock.Event
	if !down {
		ws = part.waiters
		part.waiters = nil
	}
	part.mu.Unlock()
	for _, w := range ws {
		w.Fire()
	}
	return nil
}

// SetPublishFence raises (fenced=true) or drops a write fence on one
// partition: while fenced, publishes park in modeled time exactly as
// under backpressure, whatever the in-flight account says. Dropping the
// fence wakes parked producers. The federated Cluster fences writes
// during leader handoffs and while a severed replication link would
// leave appends unacknowledgeable; fetch-side fencing reuses
// SetPartitionDown.
func (b *Broker) SetPublishFence(topicName string, partitionIdx int, fenced bool) error {
	t, err := b.topicByName(topicName)
	if err != nil {
		return err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	part.fencePub = fenced
	var ws []*vclock.Event
	if !fenced {
		ws = part.space
		part.space = nil
	}
	part.mu.Unlock()
	for _, w := range ws {
		w.Fire()
	}
	return nil
}

// Trim discards log segments of one partition wholly below `below`,
// bounding resident memory under infinite streams. Only sealed (full)
// segments strictly under the mark are dropped, so the floor stays
// segment-aligned and the unsealed tail is never touched; `below` is
// clamped to the commit mark, so uncommitted data is never trimmed.
// Fetches under the new floor return OffsetOutOfRangeError. Returns the
// oldest retained offset after the trim. Callers own the policy — the
// Cluster trims below the low-watermark of persisted group offsets.
func (b *Broker) Trim(topicName string, partitionIdx int, below int64) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	segSize := int64(b.cfg.SegmentSize)
	part.mu.Lock()
	defer part.mu.Unlock()
	if below > part.committed {
		below = part.committed
	}
	k := 0
	for k < len(part.segs) {
		segEnd := part.first + int64(k+1)*segSize
		if segEnd > below || int64(len(part.segs[k].msgs)) < segSize {
			break
		}
		k++
	}
	if k == 0 {
		return part.first, nil
	}
	part.trimmedCum = part.segs[k-1].cum[segSize-1]
	// Nil out the dropped heads before resliceing: the backing array
	// survives in segs, and a live pointer there would pin every trimmed
	// segment — exactly the memory the trim exists to release. One dropped
	// segment no view ever reached is kept as the spare for nextSegment.
	for i := 0; i < k; i++ {
		if part.spare == nil && !part.segs[i].viewed {
			part.spare = part.segs[i]
		}
		part.segs[i] = nil
	}
	part.segs = part.segs[k:]
	part.first += int64(k) * segSize
	return part.first, nil
}

// OldestOffset returns a partition's retention floor: the oldest offset
// a fetch can still serve (zero until the first trim).
func (b *Broker) OldestOffset(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.first, nil
}

// ResidentBytes returns the payload bytes a partition currently holds in
// memory — everything appended minus everything trimmed. This is the
// quantity the retention contract bounds.
func (b *Broker) ResidentBytes(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.totalBytes - part.trimmedCum, nil
}

// EndOffset returns the next offset to be written on a partition.
func (b *Broker) EndOffset(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.end, nil
}

// Committed returns a partition's commit mark (the next uncommitted
// offset).
func (b *Broker) Committed(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.committed, nil
}

// InflightBytes returns a partition's published-but-uncommitted bytes —
// the quantity MaxInflightBytes bounds.
func (b *Broker) InflightBytes(topicName string, partitionIdx int) (int64, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return 0, err
	}
	if partitionIdx < 0 || partitionIdx >= len(t.partitions) {
		return 0, fmt.Errorf("streaming: partition %d out of range for %q", partitionIdx, topicName)
	}
	part := t.partitions[partitionIdx]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.inflight, nil
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
			ws := p.waiters
			p.waiters = nil
			sp := p.space
			p.space = nil
			p.mu.Unlock()
			for _, w := range ws {
				w.Fire()
			}
			for _, w := range sp {
				w.Fire()
			}
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
