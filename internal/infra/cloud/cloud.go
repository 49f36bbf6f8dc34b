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
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
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

// VMState is a virtual machine lifecycle state.
type VMState int

// VM states.
const (
	Booting VMState = iota
	Ready
	Terminated
)

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case Booting:
		return "Booting"
	case Ready:
		return "Ready"
	case Terminated:
		return "Terminated"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is a provisioned instance.
type VM struct {
	id    string
	vtype VMType

	mu      sync.Mutex
	state   VMState
	started time.Time // when Ready
	ended   time.Time
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
	// Clock supplies virtual time; defaults to a private vclock.Virtual.
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
	if out.Clock == nil {
		out.Clock = vclock.NewVirtual(vclock.Epoch)
	}
	return out
}

// Provider is a simulated IaaS region.
type Provider struct {
	cfg    Config
	faults infra.Faults

	mu     sync.Mutex
	nextID int
	active map[*VM]struct{}
	cost   float64
	closed bool
	ctx    context.Context
	stop   context.CancelFunc
	wg     *vclock.Group
}

// ErrQuota is returned when the VM quota would be exceeded.
var ErrQuota = errors.New("cloud: VM quota exceeded")

// ErrClosed is returned after Shutdown; it wraps infra.ErrBackendClosed
// so heterogeneous dispatchers need only one test.
var ErrClosed = fmt.Errorf("cloud: provider closed: %w", infra.ErrBackendClosed)

// ErrUnknownType is returned for an unknown instance type name.
var ErrUnknownType = errors.New("cloud: unknown instance type")

// New creates a provider.
func New(cfg Config) *Provider {
	p := &Provider{cfg: cfg.withDefaults(), active: make(map[*VM]struct{})}
	p.wg = vclock.NewGroup(p.cfg.Clock)
	p.ctx, p.stop = context.WithCancel(context.Background())
	return p
}

// Name returns the region name.
func (p *Provider) Name() string { return p.cfg.Name }

// Site returns the region's site identity.
func (p *Provider) Site() infra.Site { return infra.Site(p.cfg.Name) }

// DefaultType returns the default instance type.
func (p *Provider) DefaultType() VMType { return p.cfg.Types[0] }

// Faults returns the provider's fault switchboard (chaos engineering).
func (p *Provider) Faults() *infra.Faults { return &p.faults }

// TypeByName looks up an instance type.
func (p *Provider) TypeByName(name string) (VMType, error) {
	for _, t := range p.cfg.Types {
		if t.Name == name {
			return t, nil
		}
	}
	return VMType{}, fmt.Errorf("%w: %q", ErrUnknownType, name)
}

// ActiveVMs returns the number of live (booting or ready) instances.
func (p *Provider) ActiveVMs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}

// Cost returns accumulated cost including charges accrued by still-running
// instances up to now.
func (p *Provider) Cost() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.cost
	now := p.cfg.Clock.Now()
	for vm := range p.active {
		vm.mu.Lock()
		if vm.state == Ready {
			total += now.Sub(vm.started).Hours() * vm.vtype.PricePerHour
		}
		vm.mu.Unlock()
	}
	return total
}

// Provision boots n instances of the named type (empty name selects the
// default) and blocks until they are Ready or ctx is canceled. Successfully
// booted instances are returned even on partial failure.
func (p *Provider) Provision(ctx context.Context, n int, typeName string) ([]*VM, error) {
	if n <= 0 {
		return nil, errors.New("cloud: must provision at least one VM")
	}
	vt := p.DefaultType()
	if typeName != "" {
		var err error
		if vt, err = p.TypeByName(typeName); err != nil {
			return nil, err
		}
	}
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
	vms := make([]*VM, n)
	for i := range vms {
		p.nextID++
		vms[i] = &VM{id: fmt.Sprintf("%s.vm%d", p.cfg.Name, p.nextID), vtype: vt, state: Booting}
		p.active[vms[i]] = struct{}{}
	}
	p.mu.Unlock()

	// Boot instances concurrently; each samples its own latency.
	wg := vclock.NewGroup(p.cfg.Clock)
	for _, vm := range vms {
		vm := vm
		boot := time.Duration(p.cfg.BootDelay.Sample() * float64(time.Second))
		wg.Add(1)
		p.cfg.Clock.Go(func() {
			defer wg.Done()
			p.cfg.Clock.Sleep(ctx, boot)
			vm.mu.Lock()
			vm.state = Ready
			vm.started = p.cfg.Clock.Now()
			vm.mu.Unlock()
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		p.Terminate(vms)
		return nil, err
	}
	return vms, nil
}

// Terminate stops instances and finalizes their charges.
func (p *Provider) Terminate(vms []*VM) {
	now := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, vm := range vms {
		vm.mu.Lock()
		if vm.state == Ready {
			p.cost += now.Sub(vm.started).Hours() * vm.vtype.PricePerHour
		}
		if vm.state != Terminated {
			vm.state = Terminated
			vm.ended = now
		}
		vm.mu.Unlock()
		delete(p.active, vm)
	}
}

// Allocation builds an infra.Allocation spanning a set of ready VMs.
func (p *Provider) Allocation(id string, vms []*VM) infra.Allocation {
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

// Shutdown terminates all instances.
func (p *Provider) Shutdown() {
	p.mu.Lock()
	p.closed = true
	var vms []*VM
	for vm := range p.active {
		vms = append(vms, vm)
	}
	p.mu.Unlock()
	p.Terminate(vms)
	p.stop()
	p.wg.Wait()
}
