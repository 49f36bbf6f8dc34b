package streaming

import (
	"context"
	"errors"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/infra/serverless"
	"gopilot/internal/vclock"
)

// ServerlessConfig describes a FaaS-backed stream processor: the
// serverless deployment mode of Pilot-Streaming studied in [73], where
// message batches are dispatched to function invocations instead of
// long-running pilot workers. Cold starts and the platform's concurrency
// limit shape latency and throughput.
type ServerlessConfig struct {
	// Topic to consume.
	Topic string
	// Function is the FaaS function name (its warm pool is keyed by this).
	Function string
	// BatchSize bounds messages per invocation (default 64, like a Kinesis
	// → Lambda event source mapping).
	BatchSize int
	// CostPerMessage is the modeled processing cost per message inside the
	// function, charged once per invocation batch.
	CostPerMessage time.Duration
	// CostCV makes per-invocation batch cost stochastic (lognormal
	// multiplier, mean 1). Zero keeps costs deterministic.
	CostCV float64
	// Stream is the processor's slot on the experiment's seeding spine;
	// the dispatcher for partition q draws its cost jitter from Stream's
	// "partition"/<q> child. Only consumed when CostCV > 0. Defaults to
	// dist.Unseeded("streaming/serverless/<function>").
	Stream *dist.Stream
	// Handler is the real computation applied to each message inside the
	// invocation.
	Handler func(ctx context.Context, msg Message) error
	// PureHandler marks Handler as a side-effect-free CPU kernel: each
	// invocation's handler loop then runs as one parallel compute phase
	// (see GroupConfig.PureHandler), overlapping invocations on real
	// cores without disturbing the virtual-time schedule.
	PureHandler bool
}

// ServerlessProcessor drives a topic through function invocations, one
// ordered dispatcher per partition (matching the per-shard ordering of
// real event source mappings).
type ServerlessProcessor struct {
	*counters
	cfg      ServerlessConfig
	broker   Bus
	platform *serverless.Platform

	stop context.CancelFunc
	wg   *vclock.Group
}

// StartServerless begins consuming the topic via FaaS invocations.
func StartServerless(ctx context.Context, platform *serverless.Platform, broker Bus, cfg ServerlessConfig) (*ServerlessProcessor, error) {
	if cfg.Handler == nil {
		return nil, errors.New("streaming: serverless processor needs a handler")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Function == "" {
		cfg.Function = "stream-fn"
	}
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("streaming/serverless/" + cfg.Function)
	}
	nparts, err := broker.Partitions(cfg.Topic)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	p := &ServerlessProcessor{
		counters: newCounters(broker.Clock()),
		cfg:      cfg,
		broker:   broker,
		platform: platform,
		stop:     cancel,
		wg:       vclock.NewGroup(broker.Clock()),
	}
	partRoot := cfg.Stream.Named("partition")
	for part := 0; part < nparts; part++ {
		part := part
		var jitter dist.Dist
		if cfg.CostCV > 0 {
			jitter = dist.LogNormalFrom(partRoot.SplitLabel(uint64(part)), 1, cfg.CostCV)
		}
		p.wg.Add(1)
		broker.Clock().Go(func() {
			defer p.wg.Done()
			p.dispatch(runCtx, part, jitter)
		})
	}
	return p, nil
}

// dispatch is the per-partition poll → invoke loop.
func (p *ServerlessProcessor) dispatch(ctx context.Context, part int, jitter dist.Dist) {
	clock := p.broker.Clock()
	parts := []int{part}
	offsets := []int64{0}
	for {
		if ctx.Err() != nil {
			return
		}
		// One combined long-poll per invocation batch (one modeled RTT,
		// clock-aware park while the shard is drained); each dispatcher
		// owns exactly one partition, so blocking here is the per-shard
		// ordering a real event source mapping provides.
		_, batch, err := p.broker.FetchOrWait(ctx, p.cfg.Topic, parts, offsets, 0, p.cfg.BatchSize)
		if err != nil {
			return
		}
		// One function invocation per batch; the invocation pays cold or
		// warm start inside the platform, then the modeled batch cost and
		// the handler loop through the shared batch-execution core
		// (latency is recorded after the whole invocation succeeds, so no
		// per-message afterEach here).
		err = p.platform.Invoke(ctx, p.cfg.Function, func(ictx context.Context, _ infra.Allocation) error {
			return chargeAndRun(ictx, clock, batch, p.cfg.CostPerMessage, jitter,
				p.cfg.PureHandler, "serverless handler at",
				func(hctx context.Context, m *Message) error { return p.cfg.Handler(hctx, *m) },
				nil)
		})
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, serverless.ErrClosed) {
				return
			}
			// Invocation failure: the batch is retried (at-least-once
			// semantics of real event source mappings).
			continue
		}
		p.recordBatch(clock.Now(), batch)
		offsets[0] += int64(len(batch))
	}
}

// Stop terminates the dispatchers.
func (p *ServerlessProcessor) Stop() {
	p.stop()
	p.wg.Wait()
	p.markStopped()
}
