package streaming

import (
	"context"
	"errors"
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

// ProcessorConfig describes a pilot-managed stream processing deployment:
// Pilot-Streaming's core operation of coupling a broker to processing
// resources managed via the pilot-abstraction.
type ProcessorConfig struct {
	// Name labels the processor's compute units.
	Name string
	// Topic to consume.
	Topic string
	// Workers is the number of parallel consumer units; partitions are
	// assigned round-robin across workers (Workers > partitions leaves the
	// excess idle, as in Kafka consumer groups). The assignment is static
	// for the processor's lifetime — use a Group for dynamic membership.
	Workers int
	// BatchSize bounds messages per fetch (default 256).
	BatchSize int
	// Handler processes each message.
	Handler HandlerFunc
	// PureHandler marks Handler as a side-effect-free CPU kernel (no
	// tc.Sleep, no clock reads, no stream draws, no shared mutation): the
	// processor then runs each fetch batch's handler calls as one parallel
	// compute phase, so workers reconstruct/decode on real cores under the
	// virtual-time executor while latency accounting stays on the token
	// and bit-reproducible. Handlers that model per-message time with
	// tc.Sleep must leave this false.
	PureHandler bool
	// CostPerMessage is the modeled processing cost per message, charged
	// once per fetch batch (sleeping per message would be distorted by OS
	// timer granularity under aggressive virtual-time compression, exactly
	// as real consumers amortize per-record overhead across poll batches).
	CostPerMessage time.Duration
	// CostCV makes the per-batch processing cost stochastic: each batch's
	// cost is CostPerMessage·len(batch) scaled by a lognormal multiplier
	// with mean 1 and this coefficient of variation. Zero (the default)
	// keeps costs deterministic.
	CostCV float64
	// Stream is the processor's slot on the experiment's seeding spine;
	// worker w draws its cost jitter from Stream's "worker"/<w> child, so
	// resizing the worker pool never shifts an existing worker's draws.
	// Only consumed when CostCV > 0. Defaults to
	// dist.Unseeded("streaming/processor/<name>").
	Stream *dist.Stream
	// CoresPerWorker sizes each worker unit (default 1).
	CoresPerWorker int
}

// counters is the shared measurement core of the consumer deployments
// (Processor, ServerlessProcessor, Group): processed count, end-to-end
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

func newCounters(clock vclock.Clock, series string) *counters {
	return &counters{
		clock:     clock,
		progress:  vclock.NewNotifier(clock),
		started:   clock.Now(),
		latencies: metrics.NewSeries(series),
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
// stretches of equal Published, each one latency value.
func (c *counters) recordBatch(now time.Time, batch []Message) {
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Published.Equal(batch[i].Published) {
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

// runBatch executes a batch for a pilot-worker deployment (Processor,
// Group), recording end-to-end latencies into c — per message on the
// serial path (handlers may sleep mid-batch), at the pinned post-join
// instant on the pure path.
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

// Processor is a running set of consumer units with latency/throughput
// accounting.
type Processor struct {
	*counters
	cfg    ProcessorConfig
	broker Bus
	mgr    *core.Manager

	units []*core.ComputeUnit
	stop  context.CancelFunc
}

// StartProcessor deploys the processing units onto mgr's pilots and starts
// consuming. Stop (or ctx cancellation) terminates the workers.
func StartProcessor(ctx context.Context, mgr *core.Manager, broker Bus, cfg ProcessorConfig) (*Processor, error) {
	if cfg.Handler == nil {
		return nil, errors.New("streaming: processor needs a handler")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.CoresPerWorker <= 0 {
		cfg.CoresPerWorker = 1
	}
	if cfg.Name == "" {
		cfg.Name = "stream-proc"
	}
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("streaming/processor/" + cfg.Name)
	}
	nparts, err := broker.Partitions(cfg.Topic)
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	p := &Processor{
		counters: newCounters(broker.Clock(), "e2e_latency_s"),
		cfg:      cfg,
		broker:   broker,
		mgr:      mgr,
		stop:     cancel,
	}

	// Static partition assignment: worker w owns partitions w, w+W, ...
	workerRoot := cfg.Stream.Named("worker")
	for w := 0; w < cfg.Workers; w++ {
		var parts []int
		for q := w; q < nparts; q += cfg.Workers {
			parts = append(parts, q)
		}
		var jitter dist.Dist
		if cfg.CostCV > 0 {
			jitter = dist.LogNormalFrom(workerRoot.SplitLabel(uint64(w)), 1, cfg.CostCV)
		}
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name:  fmt.Sprintf("%s[%d]", cfg.Name, w),
			Cores: cfg.CoresPerWorker,
			Run: func(_ context.Context, tc core.TaskContext) error {
				return p.consume(runCtx, tc, parts, jitter)
			},
		})
		if err != nil {
			cancel()
			return nil, err
		}
		p.units = append(p.units, u)
	}
	return p, nil
}

// consume is one worker's loop over its partition set: one FetchOrWait
// long-poll per batch (one modeled RTT, parking clock-aware when all
// owned partitions are drained), rotating the scan start across polls so
// every partition gets served under sustained load.
func (p *Processor) consume(ctx context.Context, tc core.TaskContext, parts []int, jitter dist.Dist) error {
	if len(parts) == 0 {
		// No partitions assigned: idle until stopped, without holding the
		// virtual-time executor's token.
		idle := vclock.NewNotifier(p.broker.Clock())
		idle.Wait(ctx)
		return nil
	}
	offsets := make([]int64, len(parts))
	start := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		i, batch, err := p.broker.FetchOrWait(ctx, p.cfg.Topic, parts, offsets, start, p.cfg.BatchSize)
		if err != nil {
			if errors.Is(err, ErrBrokerClosed) || ctx.Err() != nil {
				return nil
			}
			return err
		}
		if err := runBatch(ctx, tc, p.counters, batch, p.cfg.CostPerMessage, jitter, p.cfg.PureHandler, p.cfg.Handler); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		offsets[i] += int64(len(batch))
		start = i + 1
	}
}

// Stop terminates the workers and waits for their units to finish.
func (p *Processor) Stop() {
	p.stop()
	for _, u := range p.units {
		u.Wait(context.Background())
	}
	p.markStopped()
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
		k := batch
		if n-sent < k {
			k = n - sent
		}
		if err := b.PublishValues(ctx, topic, values[:k]); err != nil {
			return 0, err
		}
		sent += k
		if rate > 0 {
			// Pace to the target rate: sleep off any time we are ahead.
			expected := time.Duration(float64(sent) / rate * float64(time.Second))
			ahead := expected - clock.Now().Sub(start)
			if ahead > 0 {
				if !clock.Sleep(ctx, ahead) {
					return 0, ctx.Err()
				}
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
