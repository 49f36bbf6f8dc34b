package cloud

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/saga"
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

// small and large are testConfig's two instance types.
var small, large = testConfig(nil).Types[0], testConfig(nil).Types[1]

// ready reports whether vm has booted, read under the provider's lock.
func ready(p *Provider, vm *instance) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !vm.started.IsZero()
}

func TestProvisionBootsVMs(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(testConfig(clock))
	defer p.Close()
	start := clock.Now()
	vms, err := p.provision(context.Background(), 3, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 3 {
		t.Fatalf("got %d VMs, want 3", len(vms))
	}
	for _, vm := range vms {
		if !ready(p, vm) {
			t.Errorf("vm %s still booting", vm.id)
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
	defer p.Close()
	vms, _ := p.provision(context.Background(), 2, large)
	alloc := p.allocation("x", vms)
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
	defer p.Close()
	vms, _ := p.provision(context.Background(), 1, large)
	clock.Sleep(context.Background(), 30*time.Second)
	p.terminate(vms)
	if p.ActiveVMs() != 0 {
		t.Errorf("ActiveVMs = %d, want 0", p.ActiveVMs())
	}
	// 30 modeled seconds of a ready VM at 0.4/h; booting is not billed.
	if cost, want := p.Cost(), (30*time.Second).Hours()*0.4; cost != want {
		t.Errorf("cost = %g, want %g", cost, want)
	}
	// A second terminate finds nothing live to bill.
	p.terminate(vms)
	if cost, want := p.Cost(), (30*time.Second).Hours()*0.4; cost != want {
		t.Errorf("cost after a second terminate = %g, want %g", cost, want)
	}
}

// TestCostIsBitIdenticalAcrossCalls: Cost sums the running VMs' charges,
// and float addition is not associative, so the order of that sum is part
// of the result. Summed in map order, three VMs priced 0.1/0.2/0.3 after
// one modeled hour gave two bit patterns over 200 calls.
func TestCostIsBitIdenticalAcrossCalls(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := New(Config{Name: "ec2", Clock: clock, Types: []VMType{
		{Name: "a", Cores: 1, PricePerHour: 0.1},
		{Name: "b", Cores: 1, PricePerHour: 0.2},
		{Name: "c", Cores: 1, PricePerHour: 0.3},
	}})
	defer p.Close()
	for _, vt := range p.cfg.Types {
		if _, err := p.provision(context.Background(), 1, vt); err != nil {
			t.Fatal(err)
		}
	}
	clock.Sleep(context.Background(), time.Hour)
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		seen[math.Float64bits(p.Cost())]++
	}
	if len(seen) != 1 {
		t.Fatalf("Cost gave %d distinct bit patterns over 200 calls: %v", len(seen), seen)
	}
}

func TestQuotaEnforced(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cfg := testConfig(clock)
	cfg.CapacityVMs = 2
	p := New(cfg)
	defer p.Close()
	if _, err := p.provision(context.Background(), 3, small); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	vms, err := p.provision(context.Background(), 2, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.provision(context.Background(), 1, small); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota for incremental request", err)
	}
	p.terminate(vms)
	if _, err := p.provision(context.Background(), 1, small); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestUnknownType(t *testing.T) {
	p := New(testConfig(vclocktest.Adopted(t)))
	defer p.Close()
	_, err := p.Submit(saga.Description{Payload: nop, Attributes: map[string]string{"vm_type": "gpu.mega"}})
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestProvisionCanceled(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cfg := testConfig(clock)
	cfg.BootDelay = dist.Constant(3600)
	p := New(cfg)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	start := clock.Now()
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	if _, err := p.provision(ctx, 1, small); err == nil {
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
	p.Close()
	if _, err := p.provision(context.Background(), 1, small); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDefaultTypeUsed(t *testing.T) {
	p := New(testConfig(vclocktest.Adopted(t)))
	defer p.Close()
	var got infra.Allocation
	j, err := p.Submit(saga.Description{TotalCores: 3, Payload: func(_ context.Context, a infra.Allocation) error {
		got = a
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := j.Wait(context.Background()); s != saga.Done {
		t.Fatalf("state = %v (%v), want Done", s, err)
	}
	if got.Cores != 4 || len(got.Nodes) != 2 {
		t.Errorf("alloc = %+v, want two of the default 2-core type", got)
	}
}

func nop(context.Context, infra.Allocation) error { return nil }
