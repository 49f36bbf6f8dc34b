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

// Bus is the client-facing surface of a message transport: everything
// producers and the two consumer deployments (Group on pilot workers,
// ServerlessProcessor on function invocations) need from the log, and
// nothing about how it is hosted. Cluster is the one implementation, and
// the deployment is its configuration: one shard at replication 1 is the
// single in-process broker, N shards at replication R the federated one —
// a deployment moves between them by changing two numbers, which is the
// resource decoupling of the pilot abstraction applied to the broker layer
// itself (DESIGN.md "Federation").
type Bus interface {
	// Clock returns the transport's clock.
	Clock() vclock.Clock
	// CreateTopic creates a topic with n partitions (idempotent for equal
	// partition counts).
	CreateTopic(name string, partitions int) error
	// Partitions returns a topic's partition count.
	Partitions(name string) (int, error)
	// Publish appends one message, selecting the partition by key hash (or
	// round-robin for empty keys); PublishBatch a batch of (key, value)
	// pairs; PublishValues a key-less batch without materializing
	// per-message results — the bulk-ingest fast path (zero allocations per
	// message beyond the log segments themselves). All block in modeled
	// time while the partition works through its backlog (per-partition
	// append capacity is the bottleneck resource), under backpressure
	// while the partition's in-flight bytes exceed MaxInflightBytes,
	// behind a handoff fence, and until the batch is acknowledged on
	// quorum.
	//
	// The modeled append cost is charged once per message, but each target
	// partition takes one lock, one waiter wake, and the producer one
	// modeled sleep for the whole batch — the amortization real producers
	// use, and on vclock.Virtual ~N× fewer scheduler interactions than
	// per-message publishes. On an error mid-batch (context cancellation,
	// Close) PublishBatch returns exactly the messages already appended
	// along with it, grouped by partition.
	Publish(ctx context.Context, topic string, key, value []byte) (Message, error)
	PublishBatch(ctx context.Context, topic string, kvs [][2][]byte) ([]Message, error)
	PublishValues(ctx context.Context, topic string, values [][]byte) error
	// Fetch long-polls one partition: a FetchOrWait over one. Both return
	// *OffsetOutOfRangeError for offsets below the retention floor.
	Fetch(ctx context.Context, topic string, partition int, offset int64, max int) ([]Message, error)
	// FetchOrWait is the consumer hot path: one modeled long-poll over a
	// set of partitions (offsets[i] pairs with parts[i]). It charges
	// FetchLatency exactly once — the poll's round trip — then returns the
	// first available batch, parking (clock-aware, zero extra charge)
	// until one of the partitions has data past its offset, ctx is done,
	// or the transport closes. Scanning begins at parts[start%len(parts)],
	// so callers rotate a cursor for deterministic fairness across their
	// partitions. The returned index points into parts; the batch is a
	// read-only view into the log (see Message) and may be shorter than
	// max at a segment boundary.
	//
	// Combining the poll and the park in one call is what eliminates the
	// fetch-then-wait double charge: a message that arrives while the
	// consumer is parked is delivered at its arrival instant, not one
	// FetchLatency later.
	FetchOrWait(ctx context.Context, topic string, parts []int, offsets []int64, start, max int) (int, []Message, error)
	// Commit acknowledges consumption through an offset (monotone);
	// Committed and EndOffset read the partition's marks.
	Commit(topic string, partition int, through int64) error
	Committed(topic string, partition int) (int64, error)
	EndOffset(topic string, partition int) (int64, error)
	// Close rejects further operations and wakes everything parked.
	Close()
}

var _ Bus = (*Cluster)(nil)

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
