// Package yarn simulates a Hadoop-YARN-style cluster resource manager:
// applications negotiate containers (bundles of cores) from a resource
// manager with a small allocation latency, and release them when done.
// Pilot-Hadoop [67], [68] manages data-processing frameworks through
// exactly this interface; gopilot's MapReduce and in-memory engines run in
// containers granted here.
package yarn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Config describes a simulated YARN cluster.
type Config struct {
	// Name is the cluster/site name.
	Name string
	// TotalCores is the cluster capacity.
	TotalCores int
	// AllocDelay samples container negotiation latency in seconds.
	AllocDelay dist.Dist
	// Clock supplies virtual time; New panics without one.
	Clock vclock.Clock
	// Stream is the cluster's slot on the experiment's seeding spine.
	// When AllocDelay is nil and Stream is set, the canonical stochastic
	// negotiation model (lognormal, mean 1 s, cv 0.3) is derived from its
	// "alloc-delay" child; with neither, a constant 0.1 s is charged.
	// Defaults to dist.Unseeded("infra/yarn/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "yarn"
	}
	if out.TotalCores <= 0 {
		out.TotalCores = 64
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/yarn/" + out.Name)
	}
	if out.AllocDelay == nil {
		if hasStream {
			out.AllocDelay = dist.LogNormalFrom(out.Stream.Named("alloc-delay"), 1, 0.3)
		} else {
			out.AllocDelay = dist.Constant(0.1)
		}
	}
	return out
}

// containerCores is the size of the containers a job is granted; a job
// of fewer cores gets one container of its size.
const containerCores = 8

// container is a granted resource bundle; released is guarded by
// Cluster.mu.
type container struct {
	id       string
	cores    int
	released bool
}

// Cluster is a simulated YARN resource manager and the saga.Service for
// it: a job negotiates containers covering TotalCores, runs, and releases
// them.
type Cluster struct {
	cfg    Config
	faults infra.Faults

	mu        sync.Mutex
	freeCores int
	nextJob   int
	nextCtr   int
	closed    bool
	waiters   []*vclock.Event
}

var _ saga.Service = (*Cluster)(nil)

// ErrClosed is returned after Close; it wraps infra.ErrBackendClosed
// so heterogeneous dispatchers need only one test.
var ErrClosed = fmt.Errorf("yarn: cluster closed: %w", infra.ErrBackendClosed)

// ErrTooLarge is returned when a request exceeds cluster capacity.
var ErrTooLarge = errors.New("yarn: request exceeds cluster capacity")

// New creates a cluster.
func New(cfg Config) *Cluster {
	if cfg.Clock == nil {
		panic("yarn: Config.Clock is nil")
	}
	c := &Cluster{cfg: cfg.withDefaults()}
	c.freeCores = c.cfg.TotalCores
	return c
}

// URL implements saga.Service.
func (c *Cluster) URL() string { return "yarn://" + c.cfg.Name }

// Site implements saga.Service.
func (c *Cluster) Site() infra.Site { return infra.Site(c.cfg.Name) }

// Faults returns the cluster's fault switchboard (chaos engineering).
func (c *Cluster) Faults() *infra.Faults { return &c.faults }

// FreeCores returns the currently unallocated cores.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeCores
}

// Submit implements saga.Service. The job negotiates containers covering
// TotalCores, runs the payload on them and releases them; a negotiation
// that fails ends the job Failed, or Canceled if the job was. YARN enforces
// no walltime.
func (c *Cluster) Submit(d saga.Description) (saga.Job, error) {
	if d.Payload == nil {
		return nil, errors.New("yarn: description has nil payload")
	}
	cores := max(d.TotalCores, 1)
	per := min(cores, containerCores)
	n := (cores + per - 1) / per
	ctx, cancel := c.cfg.Clock.WithCancel(context.Background())
	c.mu.Lock()
	c.nextJob++
	j := saga.NewJobRecord(fmt.Sprintf("yarn.%s.%d", c.cfg.Name, c.nextJob), &c.mu, c.cfg.Clock, cancel)
	c.mu.Unlock()

	c.cfg.Clock.Go(func() {
		defer cancel()
		containers, err := c.requestContainers(ctx, n, per)
		if err != nil {
			j.FinishPayload(ctx.Err(), fmt.Errorf("yarn: container negotiation failed: %w", err))
			return
		}
		defer c.release(containers)
		j.Start()
		err = d.Payload(ctx, c.allocation(j.ID(), containers))
		j.FinishPayload(ctx.Err(), err)
	})
	return j, nil
}

// requestContainers negotiates n containers of coresEach cores, blocking
// until capacity is available (containers released by other applications)
// or ctx is canceled. Containers are granted all-or-nothing.
func (c *Cluster) requestContainers(ctx context.Context, n, coresEach int) ([]*container, error) {
	if err := c.faults.Check(); err != nil {
		return nil, fmt.Errorf("yarn: %s: %w", c.cfg.Name, err)
	}
	want := n * coresEach
	if want > c.cfg.TotalCores {
		return nil, fmt.Errorf("%w: want %d total %d", ErrTooLarge, want, c.cfg.TotalCores)
	}
	// Negotiation latency.
	delay := time.Duration(c.cfg.AllocDelay.Sample() * float64(time.Second))
	if !c.cfg.Clock.Sleep(ctx, delay) {
		return nil, ctx.Err()
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.freeCores >= want {
			c.freeCores -= want
			out := make([]*container, n)
			for i := range out {
				c.nextCtr++
				out[i] = &container{id: fmt.Sprintf("%s.c%d", c.cfg.Name, c.nextCtr), cores: coresEach}
			}
			c.mu.Unlock()
			return out, nil
		}
		ev := vclock.NewEvent(c.cfg.Clock)
		c.waiters = append(c.waiters, ev)
		c.mu.Unlock()
		if !ev.Wait(ctx) {
			// Unlink on the cancel exit: the next release may be far off, and
			// until then every canceled request would sit in the list.
			c.mu.Lock()
			if i := slices.Index(c.waiters, ev); i >= 0 {
				c.waiters = slices.Delete(c.waiters, i, i+1)
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// release returns containers to the cluster.
func (c *Cluster) release(containers []*container) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ct := range containers {
		if !ct.released {
			ct.released = true
			c.freeCores += ct.cores
		}
	}
	for _, ev := range c.waiters {
		ev.Fire()
	}
	c.waiters = nil
}

// allocation builds an infra.Allocation spanning a container set.
func (c *Cluster) allocation(id string, containers []*container) infra.Allocation {
	cores := 0
	nodes := make([]string, len(containers))
	for i, ct := range containers {
		cores += ct.cores
		nodes[i] = ct.id
	}
	return infra.Allocation{
		ID:      id,
		Site:    c.Site(),
		Cores:   cores,
		Nodes:   nodes,
		Granted: c.cfg.Clock.Now(),
	}
}

// Close implements saga.Service: outstanding requests fail.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, ev := range c.waiters {
		ev.Fire()
	}
	c.waiters = nil
	return nil
}
