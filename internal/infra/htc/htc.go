// Package htc simulates a high-throughput computing pool in the style of
// Condor/OSG: a large collection of single-core (or few-core) slots,
// per-job matchmaking overhead, and opportunistic resources that can evict
// a running job at any time. These are exactly the behaviours that make
// per-task submission expensive and unreliable — and that the
// pilot-abstraction hides (paper Section IV).
package htc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Config describes a simulated HTC pool.
type Config struct {
	// Name is the site name.
	Name string
	// Slots is the number of concurrently usable one-core execution slots.
	Slots int
	// MatchDelay samples per-job matchmaking/negotiation overhead in seconds.
	MatchDelay dist.Dist
	// EvictionRate is the per-job probability that a run attempt is evicted
	// partway through (opportunistic resources reclaimed by their owner).
	EvictionRate float64
	// MaxRetries bounds automatic re-matching after eviction.
	MaxRetries int
	// Clock supplies virtual time; New panics without one.
	Clock vclock.Clock
	// Stream is the pool's slot on the experiment's seeding spine. Every
	// glidein draws its eviction sequence from the "evict"/<glidein
	// ordinal> child, so concurrent glideins never share a generator and
	// submitting an additional job cannot shift an existing job's draws.
	// When MatchDelay is nil and Stream is set, the canonical stochastic
	// matchmaking model (lognormal, mean 15 s, cv 0.5) is derived from the
	// "match-delay" child; with neither, matchmaking is instantaneous.
	// Defaults to dist.Unseeded("infra/htc/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "htc"
	}
	if out.Slots <= 0 {
		out.Slots = 64
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/htc/" + out.Name)
	}
	if out.MatchDelay == nil {
		if hasStream {
			out.MatchDelay = dist.LogNormalFrom(out.Stream.Named("match-delay"), 15, 0.5)
		} else {
			out.MatchDelay = dist.Constant(0)
		}
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	}
	return out
}

// job is an HTC job of k cores: k single-slot glideins whose payload
// starts once all k have matched (condor-glidein coalescence) and is
// canceled if a member slot is lost. The fields below the record are
// guarded by Pool.mu, except the fixed payload context and its cancel.
type job struct {
	*saga.JobRecord
	changed *vclock.Notifier // a glidein arrived or was lost
	release *vclock.Event    // the payload is over: glideins give their slots back
	pctx    context.Context  // the payload's context
	pcancel context.CancelFunc
	nodes   []string // one entry per slot tenure, in arrival order
	lost    error    // the first glidein loss
}

// glidein is one single-slot placeholder of a job. Its rng is its own
// "evict"/<ordinal> stream; evict draws one success/failure per run attempt
// from it. Per-glidein streams make the eviction sequence a property of the
// glidein's identity, not of how pool load interleaves.
type glidein struct {
	job      *job
	runtime  time.Duration // the job's walltime, over which eviction points are sampled
	rng      *dist.Stream
	evict    *dist.BernoulliDist
	attempts int // guarded by Pool.mu
}

// Pool is a simulated HTC pool and the saga.Service for it.
type Pool struct {
	cfg    Config
	faults infra.Faults

	slots     *vclock.Sem  // counting semaphore of execution slots
	evictRoot *dist.Stream // parent of per-glidein eviction streams

	mu          sync.Mutex
	nextJob     int
	nextGlidein int
	closed      bool
	active      []*stormHandle // running attempts, in start order (for Storm)

	matchDelays *metrics.Series
	evictions   int

	ctx  context.Context
	stop context.CancelFunc
	wg   *vclock.Group
}

var _ saga.Service = (*Pool)(nil)

// ErrPoolClosed is returned by Submit after Close; it wraps
// infra.ErrBackendClosed so heterogeneous dispatchers need only one test.
var ErrPoolClosed = fmt.Errorf("htc: pool closed: %w", infra.ErrBackendClosed)

// New creates an HTC pool.
func New(cfg Config) *Pool {
	if cfg.Clock == nil {
		panic("htc: Config.Clock is nil")
	}
	p := &Pool{
		cfg:         cfg.withDefaults(),
		matchDelays: metrics.NewSeries(),
	}
	p.slots = vclock.NewSem(p.cfg.Clock, p.cfg.Slots)
	p.wg = vclock.NewGroup(p.cfg.Clock)
	p.evictRoot = p.cfg.Stream.Named("evict")
	p.ctx, p.stop = context.WithCancel(context.Background())
	return p
}

// URL implements saga.Service.
func (p *Pool) URL() string { return "htc://" + p.cfg.Name }

// Site implements saga.Service.
func (p *Pool) Site() infra.Site { return infra.Site(p.cfg.Name) }

// Faults returns the pool's fault switchboard (chaos engineering).
func (p *Pool) Faults() *infra.Faults { return &p.faults }

// stormHandle exposes a running attempt's eviction controls to Storm.
type stormHandle struct {
	evicted *atomic.Bool
	cancel  context.CancelFunc
}

// Storm evicts every attempt currently running on the pool, in attempt
// start order — the chaos engine's "opportunistic owners reclaim the whole
// pool at once" fault. Evicted glideins retry through their normal budget.
// Returns the number of attempts evicted.
func (p *Pool) Storm() int {
	p.mu.Lock()
	hs := append([]*stormHandle(nil), p.active...)
	p.mu.Unlock()
	for _, h := range hs {
		h.evicted.Store(true)
		h.cancel()
	}
	return len(hs)
}

// MatchDelayStats summarizes observed matchmaking delays (seconds).
func (p *Pool) MatchDelayStats() metrics.Summary { return p.matchDelays.Summary() }

// Submit implements saga.Service: a job of TotalCores cores becomes as many
// single-slot glideins, each matched and run on its own. The job ordinal is
// taken even when the submission is refused.
func (p *Pool) Submit(d saga.Description) (saga.Job, error) {
	if d.Payload == nil {
		return nil, errors.New("htc: description has nil payload")
	}
	slots := max(d.TotalCores, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextJob++
	if err := p.faults.Check(); err != nil {
		return nil, fmt.Errorf("htc: %s: %w", p.cfg.Name, err)
	}
	if p.closed {
		return nil, ErrPoolClosed
	}
	ctx, cancel := p.cfg.Clock.WithCancel(context.Background())
	j := &job{
		JobRecord: saga.NewJobRecord(fmt.Sprintf("htc.%s.%d", p.cfg.Name, p.nextJob), &p.mu, p.cfg.Clock, cancel),
		changed:   vclock.NewNotifier(p.cfg.Clock),
		release:   vclock.NewEvent(p.cfg.Clock),
	}
	j.pctx, j.pcancel = p.cfg.Clock.WithCancel(ctx)
	for i := 0; i < slots; i++ {
		p.nextGlidein++
		rng := p.evictRoot.SplitLabel(uint64(p.nextGlidein))
		g := &glidein{job: j, runtime: d.Walltime, rng: rng, evict: dist.BernoulliFrom(rng, p.cfg.EvictionRate)}
		p.wg.Add(1)
		p.cfg.Clock.Go(func() {
			defer p.wg.Done()
			p.runGlidein(g)
		})
	}
	p.cfg.Clock.Go(func() {
		defer cancel()
		p.coalesce(ctx, j, d.Payload, slots)
	})
	return j, nil
}

// Close implements saga.Service: running glideins lose their slots, which
// fails their jobs.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.stop()
	p.wg.Wait()
	return nil
}

// coalesce waits until every glidein of j holds a slot, then runs the
// payload on all of them. A glidein lost before that fails the job; one
// lost mid-run cancels the payload, and the job fails with it.
func (p *Pool) coalesce(ctx context.Context, j *job, payload infra.Payload, slots int) {
	var nodes []string
	for nodes == nil {
		p.mu.Lock()
		lost := j.lost
		if len(j.nodes) >= slots {
			nodes = slices.Clone(j.nodes[:slots])
		}
		p.mu.Unlock()
		if lost != nil {
			j.release.Fire()
			j.Finish(saga.Failed, fmt.Errorf("htc: glidein lost before start: %w", lost))
			return
		}
		if nodes == nil && !j.changed.Wait(ctx) {
			j.release.Fire()
			j.FinishPayload(ctx.Err(), nil)
			return
		}
	}
	j.Start()
	err := payload(j.pctx, infra.Allocation{ID: j.ID(), Site: p.Site(), Cores: slots, Nodes: nodes, Granted: j.StartTime()})
	j.pcancel()
	j.release.Fire()
	p.mu.Lock()
	lost := j.lost
	p.mu.Unlock()
	if lost != nil {
		j.Finish(saga.Failed, fmt.Errorf("htc: slot evicted mid-run: %w", lost))
		return
	}
	j.FinishPayload(ctx.Err(), err)
}

// runGlidein matches g and holds a slot for its job, re-matching after an
// eviction while its retry budget lasts.
func (p *Pool) runGlidein(g *glidein) {
	for {
		// Matchmaking delay before a slot is even negotiated.
		delay := time.Duration(p.cfg.MatchDelay.Sample() * float64(time.Second))
		p.matchDelays.Add(delay.Seconds())
		if !p.cfg.Clock.Sleep(p.ctx, delay) || !p.slots.Acquire(p.ctx) {
			return
		}
		evicted := p.attempt(g)
		p.slots.Release()
		if !evicted {
			return
		}
		p.mu.Lock()
		p.evictions++
		retry := g.attempts <= p.cfg.MaxRetries
		p.mu.Unlock()
		if !retry {
			return
		}
	}
}

// attempt is one slot tenure of g; it may be interrupted by a sampled
// eviction event, and reports whether it was.
func (p *Pool) attempt(g *glidein) bool {
	ctx, cancel := p.cfg.Clock.WithCancel(p.ctx)
	defer cancel()

	// Eviction lands in the first half of the estimated runtime so that an
	// accurate runtime estimate guarantees interruption; a payload that
	// finishes early simply escapes the eviction, as on a real pool. Both
	// draws come from the glidein's own labeled stream — two per attempt, so
	// a retry continues the glidein's sequence.
	var evicted atomic.Bool
	h := &stormHandle{evicted: &evicted, cancel: cancel}
	p.mu.Lock()
	g.attempts++
	p.active = append(p.active, h)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		i := slices.Index(p.active, h)
		p.active = slices.Delete(p.active, i, i+1)
		p.mu.Unlock()
	}()
	willEvict := g.evict.Sample() == 1
	evictFrac := 0.1 + 0.4*g.rng.Float64()
	if willEvict && g.runtime > 0 {
		evictAfter := time.Duration(float64(g.runtime) * evictFrac)
		p.wg.Add(1)
		p.cfg.Clock.Go(func() {
			defer p.wg.Done()
			if p.cfg.Clock.Sleep(ctx, evictAfter) {
				evicted.Store(true)
				cancel()
			}
		})
	}
	p.hold(ctx, g.job)
	return evicted.Load()
}

// hold puts one slot at j's disposal until j's payload is over or ctx ends
// the tenure; a tenure ended first is j's loss.
func (p *Pool) hold(ctx context.Context, j *job) {
	p.mu.Lock()
	j.nodes = append(j.nodes, p.cfg.Name+"-slot")
	p.mu.Unlock()
	j.changed.Set()
	if j.release.Wait(ctx) {
		return
	}
	p.mu.Lock()
	if j.lost == nil {
		j.lost = ctx.Err()
	}
	p.mu.Unlock()
	j.changed.Set()
	j.pcancel()
}
