// Package hpc simulates a production HPC machine fronted by a batch queue —
// the infrastructure class the pilot-abstraction was born on (BigJob [63]).
//
// The simulator reproduces the behaviours that matter to pilot systems:
//
//   - exogenous queue wait (competing users) sampled from a configurable
//     distribution, on top of emergent capacity wait;
//   - FCFS scheduling with optional EASY backfill;
//   - whole-node allocation and walltime enforcement (jobs are killed when
//     their requested walltime expires);
//   - dispatch overhead for the local resource management system.
//
// All delays are modeled in virtual time through vclock.Clock, so an
// experiment with hour-long queue waits runs in milliseconds.
package hpc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Config describes a simulated HPC machine.
type Config struct {
	// Name is the site name (also the infra.Site of allocations).
	Name string
	// Nodes is the machine size in nodes.
	Nodes int
	// CoresPerNode is the homogeneous per-node core count.
	CoresPerNode int
	// QueueWait samples the exogenous queue delay, in seconds, a job incurs
	// before becoming eligible to run (competing load from other users).
	QueueWait dist.Dist
	// DispatchOverhead is the LRMS overhead between scheduling a job and its
	// payload starting (prologue, node health checks).
	DispatchOverhead time.Duration
	// Backfill enables EASY backfill; without it the queue is strict FCFS.
	Backfill bool
	// Clock supplies virtual time; New panics without one.
	Clock vclock.Clock
	// Stream is the cluster's slot on the experiment's seeding spine.
	// When QueueWait is nil and Stream is set, the canonical stochastic
	// queue-wait model (lognormal, mean 60 s, cv 0.5) is derived from its
	// "queue-wait" child; with neither, queue waits are zero. Defaults to
	// dist.Unseeded("infra/hpc/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Nodes <= 0 {
		out.Nodes = 16
	}
	if out.CoresPerNode <= 0 {
		out.CoresPerNode = 8
	}
	if out.Name == "" {
		out.Name = "hpc"
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/hpc/" + out.Name)
	}
	if out.QueueWait == nil {
		if hasStream {
			out.QueueWait = dist.LogNormalFrom(out.Stream.Named("queue-wait"), 60, 0.5)
		} else {
			out.QueueWait = dist.Constant(0)
		}
	}
	return out
}

// job is a batch job: the saga job record plus what the batch system needs
// to queue, run and kill it. stop is guarded by Cluster.mu; the rest is
// fixed at submission.
type job struct {
	*saga.JobRecord
	nodes    int
	walltime time.Duration
	payload  infra.Payload
	eligible time.Time
	stop     context.CancelFunc // kills the run; nil while pending
}

// Cluster is a simulated HPC machine and the saga.Service for it. Create
// with New; all methods are safe for concurrent use.
type Cluster struct {
	cfg    Config
	faults infra.Faults

	mu        sync.Mutex
	freeNodes int
	pending   []*job
	running   map[*job]time.Time // expected end (start + walltime)
	nextID    int
	closed    bool

	queueWaits *metrics.Series

	wake *vclock.Notifier
	ctx  context.Context
	stop context.CancelFunc
	wg   *vclock.Group
}

var _ saga.Service = (*Cluster)(nil)

// ErrClusterClosed is returned by Submit after Close; it wraps
// infra.ErrBackendClosed so heterogeneous dispatchers need only one test.
var ErrClusterClosed = fmt.Errorf("hpc: cluster closed: %w", infra.ErrBackendClosed)

// ErrTooLarge is returned when a job requests more nodes than the machine has.
var ErrTooLarge = errors.New("hpc: job requests more nodes than cluster has")

// New creates a cluster and starts its scheduler.
func New(cfg Config) *Cluster {
	if cfg.Clock == nil {
		panic("hpc: Config.Clock is nil")
	}
	c := &Cluster{
		cfg:        cfg.withDefaults(),
		running:    make(map[*job]time.Time),
		queueWaits: metrics.NewSeries(),
	}
	c.wake = vclock.NewNotifier(c.cfg.Clock)
	c.wg = vclock.NewGroup(c.cfg.Clock)
	c.freeNodes = c.cfg.Nodes
	c.ctx, c.stop = context.WithCancel(context.Background())
	c.wg.Add(1)
	c.cfg.Clock.Go(c.schedulerLoop)
	return c
}

// URL implements saga.Service.
func (c *Cluster) URL() string { return "hpc://" + c.cfg.Name }

// Site implements saga.Service.
func (c *Cluster) Site() infra.Site { return infra.Site(c.cfg.Name) }

// TotalCores returns the machine size in cores.
func (c *Cluster) TotalCores() int { return c.cfg.Nodes * c.cfg.CoresPerNode }

// Faults returns the cluster's fault switchboard (chaos engineering).
func (c *Cluster) Faults() *infra.Faults { return &c.faults }

// Submit implements saga.Service. The job asks for TotalCores rounded up to
// whole nodes, as real batch systems do, becomes eligible to run after its
// sampled exogenous queue delay, and runs when FCFS/backfill order and
// capacity allow; its payload is killed when Walltime expires.
func (c *Cluster) Submit(d saga.Description) (saga.Job, error) {
	if d.Payload == nil {
		return nil, errors.New("hpc: description has nil payload")
	}
	if err := c.faults.Check(); err != nil {
		return nil, fmt.Errorf("hpc: %s: %w", c.cfg.Name, err)
	}
	nodes := (max(d.TotalCores, 1) + c.cfg.CoresPerNode - 1) / c.cfg.CoresPerNode
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClusterClosed
	}
	if nodes > c.cfg.Nodes {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d have %d", ErrTooLarge, nodes, c.cfg.Nodes)
	}
	c.nextID++
	delay := time.Duration(c.cfg.QueueWait.Sample() * float64(time.Second))
	j := &job{nodes: nodes, walltime: d.Walltime, payload: d.Payload}
	j.JobRecord = saga.NewJobRecord(fmt.Sprintf("%s.%d", c.cfg.Name, c.nextID), &c.mu, c.cfg.Clock, func() { c.cancel(j) })
	j.eligible = j.SubmitTime().Add(delay)
	c.pending = append(c.pending, j)
	c.mu.Unlock()
	if delay > 0 {
		c.wakeAfter(delay)
	}
	c.kick()
	return j, nil
}

// cancel removes a pending job, which ends Canceled, or kills a running
// one. Whether the job is still pending is decided under c.mu, where
// startLocked takes it off the queue.
func (c *Cluster) cancel(j *job) {
	c.mu.Lock()
	i := slices.Index(c.pending, j)
	if i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
	stop := j.stop
	c.mu.Unlock()
	if i >= 0 {
		j.Finish(saga.Canceled, nil)
	} else if stop != nil {
		stop()
	}
}

// QueueWaitStats returns the observed queue-wait sample (seconds).
func (c *Cluster) QueueWaitStats() metrics.Summary { return c.queueWaits.Summary() }

// Close implements saga.Service: it cancels every job and stops the
// scheduler.
func (c *Cluster) Close() error {
	c.mu.Lock()
	c.closed = true
	pend := c.pending
	c.pending = nil
	var stops []context.CancelFunc
	for j := range c.running {
		stops = append(stops, j.stop)
	}
	c.mu.Unlock()
	for _, j := range pend {
		j.Finish(saga.Canceled, nil)
	}
	for _, stop := range stops {
		stop()
	}
	c.stop()
	c.wg.Wait()
	return nil
}

// kick nudges the scheduler loop.
func (c *Cluster) kick() { c.wake.Set() }

// wakeAfter schedules a future kick in virtual time.
func (c *Cluster) wakeAfter(d time.Duration) {
	c.wg.Add(1)
	c.cfg.Clock.Go(func() {
		defer c.wg.Done()
		if c.cfg.Clock.Sleep(c.ctx, d) {
			c.kick()
		}
	})
}

func (c *Cluster) schedulerLoop() {
	defer c.wg.Done()
	for c.wake.Wait(c.ctx) {
		c.schedule()
	}
}

// schedule implements FCFS with optional EASY backfill over eligible jobs.
func (c *Cluster) schedule() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()

	for {
		startedAny := false
		var head *job
		for _, j := range c.pending {
			if j.eligible.After(now) {
				continue
			}
			if head == nil {
				head = j
			}
			if j == head {
				if j.nodes <= c.freeNodes {
					c.startLocked(j, now)
					startedAny = true
					break // pending mutated; rescan
				}
				if !c.cfg.Backfill {
					break
				}
				continue
			}
			// Backfill candidates beyond the head.
			if j.nodes > c.freeNodes {
				continue
			}
			shadow, extra := c.shadowLocked(head, now)
			fitsExtra := j.nodes <= extra
			finishesBeforeShadow := j.walltime > 0 && !now.Add(j.walltime).After(shadow)
			if fitsExtra || finishesBeforeShadow {
				c.startLocked(j, now)
				startedAny = true
				break
			}
		}
		if !startedAny {
			break
		}
	}
}

// shadowLocked computes the EASY backfill shadow time (earliest time the
// head job could start, assuming running jobs end at their walltime) and
// the number of nodes that will still be free at that time beyond the
// head's requirement.
func (c *Cluster) shadowLocked(head *job, now time.Time) (time.Time, int) {
	type rel struct {
		at    time.Time
		nodes int
		id    string
	}
	rels := make([]rel, 0, len(c.running))
	for j, end := range c.running {
		rels = append(rels, rel{at: end, nodes: j.nodes, id: j.ID()})
	}
	// Tie-break equal release times by job id: c.running is a map, and an
	// order-dependent shadow would make backfill (and thus makespans)
	// nondeterministic across same-seed runs.
	sort.Slice(rels, func(i, k int) bool {
		if !rels[i].at.Equal(rels[k].at) {
			return rels[i].at.Before(rels[k].at)
		}
		return rels[i].id < rels[k].id
	})
	free := c.freeNodes
	for _, r := range rels {
		free += r.nodes
		if free >= head.nodes {
			return r.at, free - head.nodes
		}
	}
	// Head can start right away capacity-wise (or never; treat as now).
	return now, c.freeNodes - head.nodes
}

// startLocked moves a pending job onto its nodes and spawns its run.
// Caller holds c.mu.
func (c *Cluster) startLocked(j *job, now time.Time) {
	i := slices.Index(c.pending, j)
	c.pending = slices.Delete(c.pending, i, i+1)
	c.freeNodes -= j.nodes
	expectedEnd := now.Add(j.walltime)
	if j.walltime == 0 {
		expectedEnd = now.Add(365 * 24 * time.Hour)
	}
	c.running[j] = expectedEnd

	ctx, stop := c.cfg.Clock.WithCancel(c.ctx)
	j.stop = stop
	c.queueWaits.Add(now.Sub(j.SubmitTime()).Seconds())

	alloc := infra.Allocation{
		ID:      j.ID(),
		Site:    c.Site(),
		Cores:   j.nodes * c.cfg.CoresPerNode,
		Nodes:   infra.NodeNames(c.cfg.Name, j.nodes),
		Granted: now,
	}

	c.wg.Add(1)
	c.cfg.Clock.Go(func() {
		defer c.wg.Done()
		c.runJob(ctx, stop, j, alloc)
	})
}

// runJob runs a started job's payload under its walltime watchdog. The job
// finishes through the one completion rule, except a walltime kill, which
// is Failed. The scheduler is kicked before the job's waiters wake, so at
// the job's end instant it runs first and hands the freed nodes on.
func (c *Cluster) runJob(ctx context.Context, stop context.CancelFunc, j *job, alloc infra.Allocation) {
	defer stop()
	j.Start()
	var timedOut atomic.Bool
	if j.walltime > 0 {
		c.wg.Add(1)
		c.cfg.Clock.Go(func() {
			defer c.wg.Done()
			if c.cfg.Clock.Sleep(ctx, j.walltime) {
				timedOut.Store(true)
				stop()
			}
		})
	}
	if c.cfg.DispatchOverhead > 0 {
		c.cfg.Clock.Sleep(ctx, c.cfg.DispatchOverhead)
	}
	err := j.payload(ctx, alloc)

	c.mu.Lock()
	delete(c.running, j)
	c.freeNodes += j.nodes
	c.mu.Unlock()
	c.kick()
	if timedOut.Load() {
		j.Finish(saga.Failed, fmt.Errorf("hpc: job %s hit walltime: %w", j.ID(), context.DeadlineExceeded))
		return
	}
	j.FinishPayload(ctx.Err(), err)
}
