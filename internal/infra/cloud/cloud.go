// Package cloud simulates an IaaS provider in the style of EC2: on-demand
// virtual machines with boot latency, instance types, elastic scale-out and
// a cost ledger. The pilot-abstraction's dynamism case study (paper §VI,
// R3; BigJob [63]) acquires additional cloud resources at runtime to meet
// application demand — this backend provides the behaviours that exercise
// that path.
package cloud

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

// VMType describes an instance type.
type VMType struct {
	// Name is the type name, e.g. "c5.xlarge".
	Name string
	// Cores per instance.
	Cores int
	// PricePerHour in abstract currency units, for the cost ledger.
	PricePerHour float64
}

// instance is a provisioned VM; it bills from the instant it is ready.
// started is guarded by Provider.mu and zero while the VM boots.
type instance struct {
	id      string
	vtype   VMType
	started time.Time
}

// Config describes a simulated cloud region.
type Config struct {
	// Name is the region/site name.
	Name string
	// Types lists available instance types; the first is the default.
	Types []VMType
	// BootDelay samples instance provisioning latency in seconds.
	BootDelay dist.Dist
	// CapacityVMs bounds the total simultaneously running instances
	// (a quota); zero means unlimited.
	CapacityVMs int
	// Clock supplies virtual time; New panics without one.
	Clock vclock.Clock
	// Stream is the region's slot on the experiment's seeding spine. When
	// BootDelay is nil and Stream is set, the canonical stochastic boot
	// model (lognormal, mean 45 s, cv 0.3) is derived from its
	// "boot-delay" child; with neither, boots are instantaneous. Defaults
	// to dist.Unseeded("infra/cloud/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "cloud"
	}
	if len(out.Types) == 0 {
		out.Types = []VMType{{Name: "std.4", Cores: 4, PricePerHour: 0.2}}
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/cloud/" + out.Name)
	}
	if out.BootDelay == nil {
		if hasStream {
			out.BootDelay = dist.LogNormalFrom(out.Stream.Named("boot-delay"), 45, 0.3)
		} else {
			out.BootDelay = dist.Constant(0)
		}
	}
	return out
}

// Provider is a simulated IaaS region and the saga.Service for it: a job
// provisions enough VMs to cover TotalCores, runs, and terminates them.
type Provider struct {
	cfg    Config
	faults infra.Faults

	mu      sync.Mutex
	nextJob int
	nextVM  int
	active  []*instance // booting or ready, in provision order
	cost    float64
	closed  bool
}

var _ saga.Service = (*Provider)(nil)

// ErrQuota is returned when the VM quota would be exceeded.
var ErrQuota = errors.New("cloud: VM quota exceeded")

// ErrClosed is returned after Close; it wraps infra.ErrBackendClosed
// so heterogeneous dispatchers need only one test.
var ErrClosed = fmt.Errorf("cloud: provider closed: %w", infra.ErrBackendClosed)

// ErrUnknownType is returned for an unknown instance type name.
var ErrUnknownType = errors.New("cloud: unknown instance type")

// New creates a provider.
func New(cfg Config) *Provider {
	if cfg.Clock == nil {
		panic("cloud: Config.Clock is nil")
	}
	return &Provider{cfg: cfg.withDefaults()}
}

// URL implements saga.Service.
func (p *Provider) URL() string { return "cloud://" + p.cfg.Name }

// Site implements saga.Service.
func (p *Provider) Site() infra.Site { return infra.Site(p.cfg.Name) }

// Faults returns the provider's fault switchboard (chaos engineering).
func (p *Provider) Faults() *infra.Faults { return &p.faults }

// ActiveVMs returns the number of live (booting or ready) instances.
func (p *Provider) ActiveVMs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}

// Cost returns accumulated cost including charges accrued by still-running
// instances up to now. Charges are summed in provision order, so the same
// ledger always yields the same bits.
func (p *Provider) Cost() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.cost
	now := p.cfg.Clock.Now()
	for _, vm := range p.active {
		if !vm.started.IsZero() {
			total += now.Sub(vm.started).Hours() * vm.vtype.PricePerHour
		}
	}
	return total
}

// Submit implements saga.Service. The attribute "vm_type" selects the
// instance type (the first configured type by default). The job provisions
// its VMs, runs the payload on them until it returns or Walltime cancels
// it, and terminates them; provisioning that fails ends the job Failed, or
// Canceled if the job was.
func (p *Provider) Submit(d saga.Description) (saga.Job, error) {
	if d.Payload == nil {
		return nil, errors.New("cloud: description has nil payload")
	}
	vt := p.cfg.Types[0]
	if name := d.Attributes["vm_type"]; name != "" {
		var err error
		if vt, err = p.typeByName(name); err != nil {
			return nil, err
		}
	}
	n := (max(d.TotalCores, 1) + vt.Cores - 1) / vt.Cores
	ctx, cancel := p.cfg.Clock.WithCancel(context.Background())
	p.mu.Lock()
	p.nextJob++
	j := saga.NewJobRecord(fmt.Sprintf("cloud.%s.%d", p.cfg.Name, p.nextJob), &p.mu, p.cfg.Clock, cancel)
	p.mu.Unlock()

	p.cfg.Clock.Go(func() {
		defer cancel()
		vms, err := p.provision(ctx, n, vt)
		if err != nil {
			j.FinishPayload(ctx.Err(), fmt.Errorf("cloud: provisioning failed: %w", err))
			return
		}
		defer p.terminate(vms)
		j.Start()
		if d.Walltime > 0 {
			// The walltime watchdog: cancels the run once it elapses, and is
			// disarmed when the payload returns first.
			wctx, disarm := p.cfg.Clock.WithCancel(ctx)
			defer disarm()
			p.cfg.Clock.Go(func() {
				if p.cfg.Clock.Sleep(wctx, d.Walltime) {
					cancel()
				}
			})
		}
		err = d.Payload(ctx, p.allocation(j.ID(), vms))
		j.FinishPayload(ctx.Err(), err)
	})
	return j, nil
}

// typeByName looks up an instance type.
func (p *Provider) typeByName(name string) (VMType, error) {
	for _, t := range p.cfg.Types {
		if t.Name == name {
			return t, nil
		}
	}
	return VMType{}, fmt.Errorf("%w: %q", ErrUnknownType, name)
}

// provision boots n instances of type vt and blocks until they are ready or
// ctx is canceled, in which case it terminates them.
func (p *Provider) provision(ctx context.Context, n int, vt VMType) ([]*instance, error) {
	if err := p.faults.Check(); err != nil {
		return nil, fmt.Errorf("cloud: %s: %w", p.cfg.Name, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.cfg.CapacityVMs > 0 && len(p.active)+n > p.cfg.CapacityVMs {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d active %d cap %d", ErrQuota, n, len(p.active), p.cfg.CapacityVMs)
	}
	vms := make([]*instance, n)
	for i := range vms {
		p.nextVM++
		vms[i] = &instance{id: fmt.Sprintf("%s.vm%d", p.cfg.Name, p.nextVM), vtype: vt}
	}
	p.active = append(p.active, vms...)
	p.mu.Unlock()

	// Boot instances concurrently; each samples its own latency.
	wg := vclock.NewGroup(p.cfg.Clock)
	for _, vm := range vms {
		boot := time.Duration(p.cfg.BootDelay.Sample() * float64(time.Second))
		wg.Add(1)
		p.cfg.Clock.Go(func() {
			defer wg.Done()
			p.cfg.Clock.Sleep(ctx, boot)
			now := p.cfg.Clock.Now()
			p.mu.Lock()
			vm.started = now
			p.mu.Unlock()
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		p.terminate(vms)
		return nil, err
	}
	return vms, nil
}

// terminate stops live instances and finalizes their charges.
func (p *Provider) terminate(vms []*instance) {
	now := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, vm := range vms {
		i := slices.Index(p.active, vm)
		if i < 0 {
			continue
		}
		p.active = slices.Delete(p.active, i, i+1)
		if !vm.started.IsZero() {
			p.cost += now.Sub(vm.started).Hours() * vm.vtype.PricePerHour
		}
	}
}

// allocation builds an infra.Allocation spanning a set of ready VMs.
func (p *Provider) allocation(id string, vms []*instance) infra.Allocation {
	cores := 0
	nodes := make([]string, len(vms))
	for i, vm := range vms {
		cores += vm.vtype.Cores
		nodes[i] = vm.id
	}
	return infra.Allocation{
		ID:      id,
		Site:    p.Site(),
		Cores:   cores,
		Nodes:   nodes,
		Granted: p.cfg.Clock.Now(),
	}
}

// Close implements saga.Service: it terminates every instance, in
// provision order, and refuses further provisioning.
func (p *Provider) Close() error {
	p.mu.Lock()
	p.closed = true
	vms := slices.Clone(p.active)
	p.mu.Unlock()
	p.terminate(vms)
	return nil
}
