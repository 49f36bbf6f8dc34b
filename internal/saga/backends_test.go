package saga_test

import (
	"context"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/infra/cloud"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/infra/htc"
	"gopilot/internal/infra/yarn"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

// The backends implement saga.Service themselves; these tests drive each
// through the interface, as the pilot layer does.

var bg = context.Background()

func sleeper(d time.Duration, clock vclock.Clock) infra.Payload {
	return func(ctx context.Context, _ infra.Allocation) error {
		if !clock.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
}

// capture is a payload that records its allocation and returns.
func capture(got *infra.Allocation) infra.Payload {
	return func(_ context.Context, a infra.Allocation) error {
		*got = a
		return nil
	}
}

// runOK submits d to s and requires the job to end Done.
func runOK(t *testing.T, s saga.Service, d saga.Description) {
	t.Helper()
	j, err := s.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if state, err := j.Wait(bg); state != saga.Done || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

func TestHPCServiceRoundsUpNodes(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cluster := hpc.New(hpc.Config{Name: "hp", Nodes: 8, CoresPerNode: 16, Clock: clock})
	defer cluster.Close()
	var got infra.Allocation
	runOK(t, cluster, saga.Description{TotalCores: 20, Walltime: time.Hour, Payload: capture(&got)}) // needs 2 nodes of 16
	if got.Cores != 32 || len(got.Nodes) != 2 {
		t.Errorf("alloc = %+v, want 32 cores on 2 nodes", got)
	}
}

func TestHPCServiceWalltimeBecomesFailed(t *testing.T) {
	clock := vclocktest.Adopted(t)
	cluster := hpc.New(hpc.Config{Name: "hp", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer cluster.Close()
	j, _ := cluster.Submit(saga.Description{TotalCores: 1, Walltime: 2 * time.Second, Payload: sleeper(time.Hour, clock)})
	state, err := j.Wait(bg)
	if state != saga.Failed {
		t.Fatalf("state = %v (err=%v), want Failed", state, err)
	}
	if ran := j.EndTime().Sub(j.StartTime()); ran != 2*time.Second {
		t.Fatalf("job ran %v, want exactly its 2s walltime", ran)
	}
}

// TestHPCRoundTripDecisions pins the scheduler decisions of one HPC job
// round trip — submit, schedule, run a 1 s payload, wake the waiter. The
// job is the saga.Job, so nothing stands between the batch system's end of
// the job and its waiter: with a watcher participant translating a native
// job's state, the same round trip recorded 7 decisions — its spawn grant
// and its wake grant.
func TestHPCRoundTripDecisions(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	cluster := hpc.New(hpc.Config{Name: "hp", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer cluster.Close()
	clock.StartRecorder(vclock.RecorderConfig{})
	runOK(t, cluster, saga.Description{TotalCores: 1, Payload: sleeper(time.Second, clock)})
	if got := clock.RecorderState().Decisions; got != 5 {
		t.Fatalf("one HPC job round trip recorded %d decisions, want 5", got)
	}
}

func TestHTCServiceCoalescesSlots(t *testing.T) {
	clock := vclocktest.Adopted(t)
	pool := htc.New(htc.Config{Name: "osg", Slots: 8, MatchDelay: dist.Constant(0.5), Clock: clock})
	defer pool.Close()
	var got infra.Allocation
	runOK(t, pool, saga.Description{Name: "glide", TotalCores: 4, Walltime: time.Minute, Payload: capture(&got)})
	if got.Cores != 4 || len(got.Nodes) != 4 {
		t.Errorf("alloc = %+v, want 4 cores on 4 slots", got)
	}
}

func TestCloudServiceProvisionsEnoughVMs(t *testing.T) {
	clock := vclocktest.Adopted(t)
	p := cloud.New(cloud.Config{
		Name:      "ec2",
		Types:     []cloud.VMType{{Name: "std", Cores: 4, PricePerHour: 0.1}},
		BootDelay: dist.Constant(1),
		Clock:     clock,
	})
	defer p.Close()
	var got infra.Allocation
	runOK(t, p, saga.Description{TotalCores: 10, Payload: capture(&got)}) // ceil(10/4) = 3 VMs = 12 cores
	if got.Cores != 12 || len(got.Nodes) != 3 {
		t.Errorf("alloc = %+v, want 12 cores on 3 VMs", got)
	}
	if p.ActiveVMs() != 0 {
		t.Errorf("VMs leaked: %d", p.ActiveVMs())
	}
}

func TestYarnServiceNegotiatesContainers(t *testing.T) {
	clock := vclocktest.Adopted(t)
	c := yarn.New(yarn.Config{Name: "y", TotalCores: 32, AllocDelay: dist.Constant(0.01), Clock: clock})
	defer c.Close()
	var got infra.Allocation
	runOK(t, c, saga.Description{TotalCores: 16, Payload: capture(&got)})
	if got.Cores != 16 || len(got.Nodes) != 2 {
		t.Errorf("alloc = %+v, want 16 cores in 2 containers of 8", got)
	}
	if c.FreeCores() != 32 {
		t.Errorf("containers leaked: free = %d", c.FreeCores())
	}
}

// backends build one of each service, each with a 10 s delay before a
// job can start (local has none).
var backends = []func(vclock.Clock) saga.Service{
	func(c vclock.Clock) saga.Service { return saga.NewLocalService("l", 8, c) },
	func(c vclock.Clock) saga.Service {
		return hpc.New(hpc.Config{Name: "h", Nodes: 2, CoresPerNode: 4, QueueWait: dist.Constant(10), Clock: c})
	},
	func(c vclock.Clock) saga.Service {
		return htc.New(htc.Config{Name: "o", Slots: 4, MatchDelay: dist.Constant(10), Clock: c})
	},
	func(c vclock.Clock) saga.Service {
		return cloud.New(cloud.Config{Name: "e", BootDelay: dist.Constant(10), Clock: c})
	},
	func(c vclock.Clock) saga.Service {
		return yarn.New(yarn.Config{Name: "y", AllocDelay: dist.Constant(10), Clock: c})
	},
}

func TestNilPayloadRejectedEverywhere(t *testing.T) {
	clock := vclocktest.Adopted(t)
	for _, backend := range backends {
		s := backend(clock)
		if _, err := s.Submit(saga.Description{}); err == nil {
			t.Errorf("%s accepted nil payload", s.URL())
		}
		s.Close()
	}
}

// TestWalltimeAndCancelContract pins, per service, what a walltime and a
// Cancel do to a job whose payload would run 2 minutes. HPC kills the
// payload at the walltime and fails the job; local and cloud cancel it at
// the walltime; HTC and YARN enforce none. Every service ends a job
// canceled before it starts, or while it runs, Canceled at the instant of
// the Cancel.
func TestWalltimeAndCancelContract(t *testing.T) {
	const w = time.Minute
	atWalltime := map[string]saga.JobState{
		"local://l": saga.Canceled, "hpc://h": saga.Failed, "htc://o": saga.Done,
		"cloud://e": saga.Canceled, "yarn://y": saga.Done,
	}
	for _, backend := range backends {
		for _, mode := range []string{"walltime", "cancel before start", "cancel while running"} {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			s := backend(clock)
			var start time.Time
			started := vclock.NewEvent(clock)
			d := saga.Description{TotalCores: 2, Payload: func(ctx context.Context, a infra.Allocation) error {
				start = clock.Now()
				started.Fire()
				return sleeper(2*w, clock)(ctx, a)
			}}
			if mode == "walltime" {
				d.Walltime = w
			}
			j, err := s.Submit(d)
			if err != nil {
				t.Fatal(err)
			}
			want, ran := saga.Canceled, time.Second
			switch mode {
			case "walltime":
				want, ran = atWalltime[s.URL()], w
				if want == saga.Done {
					ran = 2 * w
				}
			case "cancel before start":
				j.Cancel()
			case "cancel while running":
				started.Wait(bg)
				clock.Sleep(bg, time.Second)
				j.Cancel()
			}
			state, err := j.Wait(bg)
			switch {
			case state != want:
				t.Errorf("%s, %s: state %v (%v), want %v", s.URL(), mode, state, err, want)
			case mode == "cancel before start" && !j.EndTime().Equal(j.SubmitTime()):
				t.Errorf("%s, %s: ended %v after submission, want at once", s.URL(), mode, j.EndTime().Sub(j.SubmitTime()))
			case mode != "cancel before start" && j.EndTime().Sub(start) != ran:
				t.Errorf("%s, %s: ran %v, want %v", s.URL(), mode, j.EndTime().Sub(start), ran)
			}
			s.Close()
			clock.Leave()
		}
	}
}
