package cloud

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func testConfig(clock vclock.Clock) Config {
	return Config{
		Name: "ec2",
		Types: []VMType{
			{Name: "small", Cores: 2, PricePerHour: 0.1},
			{Name: "large", Cores: 8, PricePerHour: 0.4},
		},
		BootDelay: dist.Constant(5),
		Clock:     clock,
	}
}

// stateOf reads a VM's lifecycle state under its lock.
func stateOf(vm *VM) VMState {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.state
}

func TestProvisionBootsVMs(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	start := clock.Now()
	vms, err := p.Provision(context.Background(), 3, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 3 {
		t.Fatalf("got %d VMs, want 3", len(vms))
	}
	for _, vm := range vms {
		if stateOf(vm) != Ready {
			t.Errorf("vm %s state = %v, want Ready", vm.id, stateOf(vm))
		}
		if vm.vtype.Name != "small" {
			t.Errorf("vm type = %q, want small", vm.vtype.Name)
		}
	}
	if boot := clock.Since(start); boot != 5*time.Second {
		t.Errorf("boot took %v modeled, want 5s (VMs boot in parallel)", boot)
	}
	if p.ActiveVMs() != 3 {
		t.Errorf("ActiveVMs = %d, want 3", p.ActiveVMs())
	}
}

func TestAllocationAggregatesCores(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	vms, _ := p.Provision(context.Background(), 2, "large")
	alloc := p.Allocation("x", vms)
	if alloc.Cores != 16 {
		t.Errorf("Cores = %d, want 16", alloc.Cores)
	}
	if len(alloc.Nodes) != 2 {
		t.Errorf("Nodes = %d, want 2", len(alloc.Nodes))
	}
	if alloc.Site != p.Site() {
		t.Errorf("Site = %q, want %q", alloc.Site, p.Site())
	}
}

func TestTerminateAccumulatesCost(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	vms, _ := p.Provision(context.Background(), 1, "large")
	clock.Sleep(context.Background(), 30*time.Second)
	p.Terminate(vms)
	if p.ActiveVMs() != 0 {
		t.Errorf("ActiveVMs = %d, want 0", p.ActiveVMs())
	}
	// 30 modeled seconds of a ready VM at 0.4/h; booting is not billed.
	if cost, want := p.Cost(), (30*time.Second).Hours()*0.4; cost != want {
		t.Errorf("cost = %g, want %g", cost, want)
	}
	if stateOf(vms[0]) != Terminated {
		t.Errorf("state = %v, want Terminated", stateOf(vms[0]))
	}
}

func TestQuotaEnforced(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cfg := testConfig(clock)
	cfg.CapacityVMs = 2
	p := New(cfg)
	defer p.Shutdown()
	if _, err := p.Provision(context.Background(), 3, "small"); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	vms, err := p.Provision(context.Background(), 2, "small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Provision(context.Background(), 1, "small"); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota for incremental request", err)
	}
	p.Terminate(vms)
	if _, err := p.Provision(context.Background(), 1, "small"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestUnknownType(t *testing.T) {
	p := New(testConfig(vclocktest.Adopted(t)))
	defer p.Shutdown()
	if _, err := p.Provision(context.Background(), 1, "gpu.mega"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestProvisionCanceled(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cfg := testConfig(clock)
	cfg.BootDelay = dist.Constant(3600)
	p := New(cfg)
	defer p.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	start := clock.Now()
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	if _, err := p.Provision(ctx, 1, ""); err == nil {
		t.Fatal("expected cancellation error")
	}
	if waited := clock.Since(start); waited != time.Minute {
		t.Errorf("Provision returned after %v, want at the cancel instant (1m)", waited)
	}
	if p.ActiveVMs() != 0 {
		t.Errorf("ActiveVMs = %d after canceled provision, want 0", p.ActiveVMs())
	}
}

func TestShutdownRejects(t *testing.T) {
	p := New(testConfig(vclocktest.Adopted(t)))
	p.Shutdown()
	if _, err := p.Provision(context.Background(), 1, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDefaultTypeUsed(t *testing.T) {
	p := New(testConfig(vclocktest.Adopted(t)))
	defer p.Shutdown()
	vms, err := p.Provision(context.Background(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if vms[0].vtype.Name != "small" {
		t.Errorf("default type = %q, want small", vms[0].vtype.Name)
	}
}
