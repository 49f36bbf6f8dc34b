package saga

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gopilot/internal/infra"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func sleeper(d time.Duration, clock vclock.Clock) infra.Payload {
	return func(ctx context.Context, _ infra.Allocation) error {
		if !clock.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
}

func TestJobStateString(t *testing.T) {
	cases := map[JobState]string{
		New: "New", Pending: "Pending", Running: "Running",
		Done: "Done", Failed: "Failed", Canceled: "Canceled",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
	if !Done.Terminal() || Running.Terminal() {
		t.Error("Terminal() wrong")
	}
}

func TestLocalServiceRunsJob(t *testing.T) {
	clock := vclocktest.Adopted(t)
	s := NewLocalService("lh", 8, clock)
	defer s.Close()
	var gotCores int
	j, err := s.Submit(Description{
		Name:       "t",
		TotalCores: 4,
		Payload: func(_ context.Context, a infra.Allocation) error {
			gotCores = a.Cores
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	state, err := j.Wait(context.Background())
	if state != Done || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if gotCores != 4 {
		t.Errorf("alloc cores = %d, want 4", gotCores)
	}
	if j.StartTime().IsZero() || j.EndTime().IsZero() {
		t.Error("timestamps not recorded")
	}
}

func TestLocalServiceFailure(t *testing.T) {
	s := NewLocalService("lh", 8, vclocktest.Adopted(t))
	defer s.Close()
	boom := errors.New("boom")
	j, _ := s.Submit(Description{Payload: func(context.Context, infra.Allocation) error { return boom }})
	state, err := j.Wait(context.Background())
	if state != Failed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

func TestLocalServiceCancel(t *testing.T) {
	clock := vclocktest.Adopted(t)
	s := NewLocalService("lh", 8, clock)
	defer s.Close()
	started := vclock.NewEvent(clock)
	j, _ := s.Submit(Description{Payload: func(ctx context.Context, _ infra.Allocation) error {
		started.Fire()
		clock.Sleep(ctx, time.Hour)
		return ctx.Err()
	}})
	started.Wait(context.Background())
	j.Cancel()
	state, _ := j.Wait(context.Background())
	if state != Canceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestLocalServiceWalltime(t *testing.T) {
	clock := vclocktest.Adopted(t)
	s := NewLocalService("lh", 8, clock)
	defer s.Close()
	j, _ := s.Submit(Description{Walltime: 2 * time.Second, Payload: sleeper(time.Hour, clock)})
	state, _ := j.Wait(context.Background())
	if state != Canceled {
		t.Fatalf("state = %v, want Canceled on walltime", state)
	}
	if ran := j.EndTime().Sub(j.StartTime()); ran != 2*time.Second {
		t.Fatalf("job ran %v, want exactly its 2s walltime", ran)
	}
}

func TestRegistry(t *testing.T) {
	clock := vclocktest.Adopted(t)
	r := NewRegistry()
	local := NewLocalService("a", 4, clock)
	r.Register(local)
	got, err := r.Lookup("local://a")
	if err != nil || got != local {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("hpc://nope"); err == nil {
		t.Fatal("expected lookup failure")
	}
	if len(r.URLs()) != 1 {
		t.Fatalf("URLs = %v", r.URLs())
	}
	r.CloseAll()
}

// TestRegistryKeepsRegistrationOrder: URLs and CloseAll walk the services
// in the order they were registered, never in a map's. CloseAll's order is
// part of the schedule — LocalService.Close parks until its jobs end — so
// two services whose jobs end at 10s and 5s must close in the same order,
// and record the same decisions, on every run.
func TestRegistryKeepsRegistrationOrder(t *testing.T) {
	clock := vclocktest.Adopted(t)
	r := NewRegistry()
	var want []string
	for _, name := range []string{"f", "c", "a", "e", "b", "d", "h", "g"} {
		s := NewLocalService(name, 1, clock)
		r.Register(s)
		want = append(want, s.URL())
	}
	for i := 0; i < 20; i++ {
		if got := r.URLs(); !slices.Equal(got, want) {
			t.Fatalf("call %d: URLs = %v, want registration order %v", i, got, want)
		}
	}
	r.CloseAll()

	closeAllHash := func() uint64 {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		defer clock.Leave()
		clock.StartRecorder(vclock.RecorderConfig{})
		r := NewRegistry()
		for _, d := range []time.Duration{10 * time.Second, 5 * time.Second} {
			s := NewLocalService(d.String(), 1, clock)
			r.Register(s)
			if _, err := s.Submit(Description{Payload: sleeper(d, clock)}); err != nil {
				t.Fatal(err)
			}
		}
		r.CloseAll()
		return clock.RecorderState().Hash
	}
	base := closeAllHash()
	for run := 1; run < 20; run++ {
		if got := closeAllHash(); got != base {
			t.Fatalf("run %d: CloseAll recorded hash %#x, run 0 %#x", run, got, base)
		}
	}
}
