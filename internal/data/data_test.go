package data

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/infra"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func newSvc(t *testing.T) *Service {
	t.Helper()
	s := NewService(Config{
		Clock:          vclocktest.Adopted(t),
		LocalBandwidth: 500e6,
		DefaultLink:    Link{Bandwidth: 12.5e6, Latency: 50 * time.Millisecond},
	})
	return s
}

func TestPutLocateSize(t *testing.T) {
	s := newSvc(t)
	if err := s.Put(context.Background(), Unit{ID: "d1", Content: []byte("hello"), Site: "siteA"}); err != nil {
		t.Fatal(err)
	}
	sites, ok := s.Locate("d1")
	if !ok || len(sites) != 1 || sites[0] != "siteA" {
		t.Fatalf("Locate = %v %v", sites, ok)
	}
	size, ok := s.Size("d1")
	if !ok || size != 5 {
		t.Fatalf("Size = %d %v, want 5", size, ok)
	}
}

func TestLogicalSizeOverridesContentLength(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "big", Content: []byte("x"), LogicalSize: 1 << 30, Site: "siteA"})
	size, _ := s.Size("big")
	if size != 1<<30 {
		t.Fatalf("Size = %d, want 1 GiB", size)
	}
}

func TestLocalReadIsCheapRemoteReadPaysTransfer(t *testing.T) {
	clock := vclocktest.Adopted(t)
	s := NewService(Config{Clock: clock, LocalBandwidth: 500e6, DefaultLink: Link{Bandwidth: 12.5e6, Latency: 100 * time.Millisecond}})
	// 125 MB logical: local 0.25s, remote 10s + 100ms latency.
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("payload"), LogicalSize: 125e6, Site: "siteA"})

	t0 := clock.Now()
	if _, err := s.Read(context.Background(), "d", "siteA"); err != nil {
		t.Fatal(err)
	}
	localCost := clock.Since(t0)

	t1 := clock.Now()
	content, err := s.Read(context.Background(), "d", "siteB")
	if err != nil {
		t.Fatal(err)
	}
	remoteCost := clock.Since(t1)

	if string(content) != "payload" {
		t.Errorf("content = %q", content)
	}
	if localCost != 250*time.Millisecond || remoteCost != 10*time.Second+100*time.Millisecond {
		t.Errorf("local read %v, remote read %v; want 250ms and 10.1s", localCost, remoteCost)
	}
	st := s.Stats()
	if st.LocalReads != 1 || st.RemoteReads != 1 {
		t.Errorf("stats = %+v, want 1 local / 1 remote", st)
	}
	if st.BytesMoved != 125e6 {
		t.Errorf("BytesMoved = %d, want 125e6", st.BytesMoved)
	}
}

// replicas counts the sites holding a unit (0 if unknown).
func replicas(s *Service, id string) int {
	sites, _ := s.Locate(id)
	return len(sites)
}

func TestReadThroughDoesNotReplicate(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), Site: "siteA"})
	s.Read(context.Background(), "d", "siteB")
	if n := replicas(s, "d"); n != 1 {
		t.Fatalf("replicas = %d, want 1 (read-through)", n)
	}
}

func TestStageInReplicates(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), LogicalSize: 1e6, Site: "siteA"})
	if err := s.StageIn(context.Background(), "d", "siteB"); err != nil {
		t.Fatal(err)
	}
	if n := replicas(s, "d"); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	sites, _ := s.Locate("d")
	if len(sites) != 2 {
		t.Fatalf("Locate = %v", sites)
	}
	// Second stage-in to the same site is free and idempotent.
	before := s.Stats().Replications
	s.StageIn(context.Background(), "d", "siteB")
	if s.Stats().Replications != before {
		t.Error("idempotent stage-in incremented replication count")
	}
}

func TestStageInUnknownUnit(t *testing.T) {
	s := newSvc(t)
	if err := s.StageIn(context.Background(), "nope", "siteA"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("err = %v, want ErrUnknownUnit", err)
	}
}

func TestReadUnknownUnit(t *testing.T) {
	s := newSvc(t)
	if _, err := s.Read(context.Background(), "nope", "siteA"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("err = %v, want ErrUnknownUnit", err)
	}
}

func TestWriteCreatesUnitAtSite(t *testing.T) {
	s := newSvc(t)
	if err := s.Write(context.Background(), "out", []byte("result"), "siteB"); err != nil {
		t.Fatal(err)
	}
	sites, ok := s.Locate("out")
	if !ok || sites[0] != "siteB" {
		t.Fatalf("Locate = %v %v", sites, ok)
	}
}

func TestPutValidation(t *testing.T) {
	s := newSvc(t)
	if err := s.Put(context.Background(), Unit{Site: "siteA"}); err == nil {
		t.Error("missing ID accepted")
	}
	if err := s.Put(context.Background(), Unit{ID: "x"}); err == nil {
		t.Error("missing site accepted")
	}
}

func TestResetStats(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), Site: "siteA"})
	s.Read(context.Background(), "d", "siteA")
	s.ResetStats()
	if st := s.Stats(); st.LocalReads != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestStageInCanceled(t *testing.T) {
	clock := vclocktest.Adopted(t)
	s := NewService(Config{Clock: clock, DefaultLink: Link{Bandwidth: 1, Latency: 0}}) // absurdly slow
	s.Put(context.Background(), Unit{ID: "d", LogicalSize: 1e9, Site: "siteA"})
	ctx, cancel := context.WithCancel(context.Background())
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	t0 := clock.Now()
	if err := s.StageIn(ctx, "d", "siteB"); err == nil {
		t.Fatal("expected cancellation")
	}
	if waited := clock.Since(t0); waited != time.Minute {
		t.Fatalf("StageIn returned after %v, want at the cancel instant (1m)", waited)
	}
	if replicas(s, "d") != 1 {
		t.Fatal("canceled transfer created replica")
	}
}

// TestConcurrentAccessIsSafe keeps real-thread overlap for -race: eight
// participants mutate the catalog on the executor's token (Put, Read,
// StageIn) while the others' lookups run in Compute bodies — off-token, on
// their own goroutines — so a lookup and a mutation are ordered by the
// service's lock alone.
func TestConcurrentAccessIsSafe(t *testing.T) {
	s := newSvc(t)
	clock := s.cfg.Clock
	bg := context.Background()
	wg := vclock.NewGroup(clock)
	for g := 0; g < 8; g++ {
		id := "d" + string(rune('a'+g))
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.Put(bg, Unit{ID: id, Content: []byte("x"), Site: "siteA"})
				s.Read(bg, id, "siteA")
				s.StageIn(bg, id, "siteB")
				clock.Compute(bg, func() {
					for k := 0; k < 50; k++ {
						s.Locate(id)
						s.Size(id)
						replicas(s, id)
						s.Stats()
					}
				})
			}
		})
	}
	wg.Wait()
}

func TestSiteConstant(t *testing.T) {
	if infra.Site("siteA") != infra.Site("siteA") {
		t.Fatal("site identity broken")
	}
}
