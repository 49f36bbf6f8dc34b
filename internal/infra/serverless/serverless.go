// Package serverless simulates a Functions-as-a-Service platform in the
// style of AWS Lambda: per-invocation containers with cold-start latency, a
// warm pool with idle expiry, and an account-level concurrency limit.
// Pilot-Streaming [32] and the serverless streaming study [73] use exactly
// these behaviours: cold starts dominate latency at low rates, and the
// concurrency limit caps throughput.
package serverless

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// Config describes a simulated FaaS platform.
type Config struct {
	// Name is the platform/site name.
	Name string
	// ColdStart samples cold-start latency in seconds.
	ColdStart dist.Dist
	// WarmStart samples warm-start latency in seconds.
	WarmStart dist.Dist
	// WarmTTL is how long an idle container stays warm.
	WarmTTL time.Duration
	// ConcurrencyLimit bounds simultaneous executions; zero means 1000.
	ConcurrencyLimit int
	// Clock supplies virtual time; New panics without one.
	Clock vclock.Clock
	// Stream is the platform's slot on the experiment's seeding spine.
	// When ColdStart/WarmStart are nil and Stream is set, canonical
	// stochastic startup models (lognormal, mean 0.5 s / 5 ms, cv 0.3)
	// are derived from its "cold-start"/"warm-start" children; with
	// neither, the historical constants apply. Defaults to
	// dist.Unseeded("infra/serverless/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "faas"
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/serverless/" + out.Name)
	}
	if out.ColdStart == nil {
		if hasStream {
			out.ColdStart = dist.LogNormalFrom(out.Stream.Named("cold-start"), 0.5, 0.3)
		} else {
			out.ColdStart = dist.Constant(0.5)
		}
	}
	if out.WarmStart == nil {
		if hasStream {
			out.WarmStart = dist.LogNormalFrom(out.Stream.Named("warm-start"), 0.005, 0.3)
		} else {
			out.WarmStart = dist.Constant(0.005)
		}
	}
	if out.WarmTTL <= 0 {
		out.WarmTTL = 10 * time.Minute
	}
	if out.ConcurrencyLimit <= 0 {
		out.ConcurrencyLimit = 1000
	}
	return out
}

// Platform is a simulated FaaS provider. Containers are tracked per
// function name: an invocation reuses a warm container when one is idle
// and within TTL, otherwise it pays a cold start.
type Platform struct {
	cfg    Config
	faults infra.Faults

	sem *vclock.Sem // account concurrency limit

	mu     sync.Mutex
	warm   map[string][]time.Time // function -> idle-since timestamps
	nextID int
	closed bool

	coldStarts int
	warmStarts int
}

// ErrClosed is returned after Shutdown; it wraps infra.ErrBackendClosed
// so heterogeneous dispatchers need only one test.
var ErrClosed = fmt.Errorf("serverless: platform closed: %w", infra.ErrBackendClosed)

// New creates a platform.
func New(cfg Config) *Platform {
	if cfg.Clock == nil {
		panic("serverless: Config.Clock is nil")
	}
	p := &Platform{
		cfg:  cfg.withDefaults(),
		warm: make(map[string][]time.Time),
	}
	p.sem = vclock.NewSem(p.cfg.Clock, p.cfg.ConcurrencyLimit)
	return p
}

// Site returns the platform's site identity.
func (p *Platform) Site() infra.Site { return infra.Site(p.cfg.Name) }

// Faults returns the platform's fault switchboard (chaos engineering).
func (p *Platform) Faults() *infra.Faults { return &p.faults }

// ColdStarts returns the number of cold starts so far.
func (p *Platform) ColdStarts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.coldStarts
}

// WarmStarts returns the number of warm starts so far.
func (p *Platform) WarmStarts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warmStarts
}

// Invoke runs fn under the platform's execution model: it acquires a
// concurrency token, pays a cold or warm start, executes the payload on a
// single-core allocation, and returns the container to the warm pool.
func (p *Platform) Invoke(ctx context.Context, function string, fn infra.Payload) error {
	if err := p.faults.Check(); err != nil {
		return fmt.Errorf("serverless: %s: %w", p.cfg.Name, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.mu.Unlock()

	if !p.sem.Acquire(ctx) {
		return ctx.Err()
	}
	defer p.sem.Release()

	cold := !p.takeWarm(function)
	var startup time.Duration
	if cold {
		startup = time.Duration(p.cfg.ColdStart.Sample() * float64(time.Second))
	} else {
		startup = time.Duration(p.cfg.WarmStart.Sample() * float64(time.Second))
	}
	if !p.cfg.Clock.Sleep(ctx, startup) {
		return ctx.Err()
	}
	p.mu.Lock()
	if cold {
		p.coldStarts++
	} else {
		p.warmStarts++
	}
	p.nextID++
	id := fmt.Sprintf("%s.%s.%d", p.cfg.Name, function, p.nextID)
	p.mu.Unlock()

	alloc := infra.Allocation{
		ID:      id,
		Site:    p.Site(),
		Cores:   1,
		Nodes:   []string{id},
		Granted: p.cfg.Clock.Now(),
	}
	err := fn(ctx, alloc)
	p.returnWarm(function)
	return err
}

// takeWarm pops a warm container for the function if one is within TTL.
func (p *Platform) takeWarm(function string) bool {
	now := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	pool := p.warm[function]
	// Drop expired entries (kept sorted by idle-since, oldest first).
	live := pool[:0]
	for _, t := range pool {
		if now.Sub(t) <= p.cfg.WarmTTL {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		p.warm[function] = nil
		return false
	}
	p.warm[function] = live[:len(live)-1]
	return true
}

func (p *Platform) returnWarm(function string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warm[function] = append(p.warm[function], p.cfg.Clock.Now())
}

// Shutdown closes the platform for new invocations.
func (p *Platform) Shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}
