package streaming

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

// HandlerFunc processes one message; processing cost should be modeled by
// sleeping through tc.Sleep inside the handler (or by real computation).
type HandlerFunc func(ctx context.Context, tc core.TaskContext, msg Message) error

// counters is the shared measurement core of the consumer deployments
// (Group, ServerlessProcessor): processed count, end-to-end
// latency series, throughput window, and the progress notifier behind
// WaitProcessed.
type counters struct {
	clock    vclock.Clock
	progress *vclock.Notifier

	mu        sync.Mutex
	processed int64
	started   time.Time
	stopped   time.Time
	latencies *metrics.Series
}

func newCounters(clock vclock.Clock) *counters {
	return &counters{
		clock:     clock,
		progress:  vclock.NewNotifier(clock),
		started:   clock.Now(),
		latencies: metrics.NewSeries(),
	}
}

// record accounts one processed message (the per-message path, used when
// handlers sleep mid-batch and each message observes its own instant).
func (c *counters) record(lat time.Duration) {
	c.latencies.Add(lat.Seconds())
	c.mu.Lock()
	c.processed++
	c.mu.Unlock()
	c.progress.Set()
}

// recordBatch accounts a whole batch completing at one instant: one
// counter lock, one progress wake, and one series entry per publish stamp
// rather than per message — a publish call stamps everything it lands on
// a partition with one clock read, so a fetch batch is a handful of
// stretches of equal Published, each one latency value. Stretches split
// on ==, not Equal: a stamp equal but not identical (another Location)
// starts a stretch of the same latency, which AddN merges into the last.
func (c *counters) recordBatch(now time.Time, batch []Message) {
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Published == batch[i].Published {
			j++
		}
		c.latencies.AddN(now.Sub(batch[i].Published).Seconds(), j-i)
		i = j
	}
	c.mu.Lock()
	c.processed += int64(len(batch))
	c.mu.Unlock()
	c.progress.Set()
}

func (c *counters) markStopped() {
	c.mu.Lock()
	c.stopped = c.clock.Now()
	c.mu.Unlock()
}

// Processed returns the number of messages handled so far.
func (c *counters) Processed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.processed
}

// WaitProcessed blocks until at least n messages were handled or ctx ends.
func (c *counters) WaitProcessed(ctx context.Context, n int64) error {
	for {
		if c.Processed() >= n {
			return nil
		}
		if !c.progress.Wait(ctx) {
			return ctx.Err()
		}
	}
}

// Throughput returns processed messages per modeled second between start
// and Stop (or now while running).
func (c *counters) Throughput() float64 {
	c.mu.Lock()
	processed := c.processed
	end := c.stopped
	c.mu.Unlock()
	if end.IsZero() {
		end = c.clock.Now()
	}
	elapsed := end.Sub(c.started).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(processed) / elapsed
}

// LatencyStats summarizes end-to-end latency in seconds.
func (c *counters) LatencyStats() metrics.Summary { return c.latencies.Summary() }

// chargeAndRun is the batch-execution core shared by every consumer
// deployment: charge the batch's modeled cost once (scaled by the
// optional jitter draw), then run handler over each message — as one
// parallel compute phase when pure (modeled time pinned, bodies overlap
// on real cores), serially otherwise with afterEach (when non-nil)
// called behind every message for interleaved accounting. Handler errors
// are wrapped with errPrefix and the failing message's coordinates.
// Handlers and afterEach receive pointers into the batch (read-only
// views), so the hot per-message loop moves one word instead of copying
// a Message per call; the copy the public by-value HandlerFunc API
// requires happens once, at that boundary.
func chargeAndRun(ctx context.Context, clock vclock.Clock, batch []Message,
	cost time.Duration, jitter dist.Dist, pure bool, errPrefix string,
	handler func(context.Context, *Message) error, afterEach func(*Message)) error {
	if cost > 0 {
		total := time.Duration(len(batch)) * cost
		if jitter != nil {
			total = time.Duration(float64(total) * jitter.Sample())
		}
		if !clock.Sleep(ctx, total) {
			return ctx.Err()
		}
	}
	if pure {
		var herr error
		if !clock.Compute(ctx, func() {
			for i := range batch {
				if err := handler(ctx, &batch[i]); err != nil {
					m := &batch[i]
					herr = fmt.Errorf("streaming: %s %s[%d]@%d: %w", errPrefix, m.Topic, m.Partition, m.Offset, err)
					return
				}
			}
		}) {
			return ctx.Err()
		}
		return herr
	}
	for i := range batch {
		if err := handler(ctx, &batch[i]); err != nil {
			m := &batch[i]
			return fmt.Errorf("streaming: %s %s[%d]@%d: %w", errPrefix, m.Topic, m.Partition, m.Offset, err)
		}
		if afterEach != nil {
			afterEach(&batch[i])
		}
	}
	return nil
}

// runBatch executes a batch for the pilot-worker deployment (Group),
// recording end-to-end latencies into c — per message on the serial path
// (handlers may sleep mid-batch), at the pinned post-join instant on the
// pure path.
func runBatch(ctx context.Context, tc core.TaskContext, c *counters, batch []Message,
	cost time.Duration, jitter dist.Dist, pure bool, handler HandlerFunc) error {
	clock := c.clock
	h := func(ctx context.Context, m *Message) error { return handler(ctx, tc, *m) }
	var afterEach func(*Message)
	if !pure {
		afterEach = func(m *Message) { c.record(clock.Now().Sub(m.Published)) }
	}
	if err := chargeAndRun(ctx, clock, batch, cost, jitter, pure, "handler on", h, afterEach); err != nil {
		return err
	}
	if pure {
		c.recordBatch(clock.Now(), batch)
	}
	return nil
}

// Produce publishes n messages at a target rate (messages per modeled
// second) in batches of 64, returning the achieved rate. A rate <= 0
// publishes as fast as the broker admits (the saturation probe used by
// E7).
func Produce(ctx context.Context, b Bus, topic string, n int, rate float64, payload []byte) (float64, error) {
	return ProduceBatched(ctx, b, topic, n, rate, payload, 64)
}

// ProduceBatched is Produce with a caller-chosen publish batch size:
// larger batches amortize broker interactions further (one lock, wake
// and producer sleep per batch) — the bulk-ingest setting E13 uses.
func ProduceBatched(ctx context.Context, b Bus, topic string, n int, rate float64, payload []byte, batch int) (float64, error) {
	if batch <= 0 {
		batch = 64
	}
	clock := b.Clock()
	start := clock.Now()
	// Every batch carries the same payload: fill the value slice once and
	// reslice per batch instead of rewriting a million pointer slots.
	values := make([][]byte, batch)
	for i := range values {
		values[i] = payload
	}
	sent := 0
	for sent < n {
		k := min(batch, n-sent)
		if err := b.PublishValues(ctx, topic, values[:k]); err != nil {
			return 0, err
		}
		sent += k
		if rate > 0 {
			// Pace to the target rate: sleep off any time we are ahead.
			expected := time.Duration(float64(sent) / rate * float64(time.Second))
			if ahead := expected - clock.Now().Sub(start); ahead > 0 && !clock.Sleep(ctx, ahead) {
				return 0, ctx.Err()
			}
		}
	}
	elapsed := clock.Now().Sub(start).Seconds()
	if elapsed <= 0 {
		return float64(n), nil
	}
	return float64(n) / elapsed, nil
}

// Window groups messages into tumbling windows of the given modeled width
// by publish time, calling flush with each completed window. It is a
// stateful helper for streaming aggregations (Table I's "global state
// across batches").
type Window struct {
	width time.Duration
	flush func(start time.Time, msgs []Message)

	mu      sync.Mutex
	current time.Time
	batch   []Message
}

// NewWindow creates a tumbling window aggregator.
func NewWindow(width time.Duration, flush func(start time.Time, msgs []Message)) *Window {
	if width <= 0 {
		panic("streaming: window width must be positive")
	}
	return &Window{width: width, flush: flush}
}

// Add routes a message into its window, flushing completed windows.
func (w *Window) Add(m Message) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws := m.Published.Truncate(w.width)
	if w.current.IsZero() {
		w.current = ws
	}
	if ws.After(w.current) {
		w.flushLocked()
		w.current = ws
	}
	w.batch = append(w.batch, m)
}

// Flush emits any buffered window.
func (w *Window) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked()
}

func (w *Window) flushLocked() {
	if len(w.batch) == 0 {
		return
	}
	batch := w.batch
	w.batch = nil
	w.flush(w.current, batch)
}
