package saga

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// LocalService runs jobs immediately in-process — the SAGA "fork" backend.
// It is the zero-latency reference backend used in unit tests and as the
// lower bound in overhead experiments.
type LocalService struct {
	name   string
	cores  int
	clock  vclock.Clock
	faults infra.Faults

	mu     sync.Mutex
	nextID int
	closed bool
	wg     *vclock.Group
}

// NewLocalService creates a local service with the given core capacity
// (capacity is advisory; local jobs are never queued).
func NewLocalService(name string, cores int, clock vclock.Clock) *LocalService {
	if clock == nil {
		panic("saga: NewLocalService needs a clock")
	}
	if name == "" {
		name = "localhost"
	}
	if cores <= 0 {
		cores = 8
	}
	return &LocalService{name: name, cores: cores, clock: clock, wg: vclock.NewGroup(clock)}
}

// URL implements Service.
func (s *LocalService) URL() string { return "local://" + s.name }

// Site implements Service.
func (s *LocalService) Site() infra.Site { return infra.Site(s.name) }

// Faults returns the service's fault switchboard (chaos engineering). The
// local backend has no simulator underneath, so it owns its own.
func (s *LocalService) Faults() *infra.Faults { return &s.faults }

// Submit implements Service.
func (s *LocalService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	if err := s.faults.Check(); err != nil {
		return nil, fmt.Errorf("saga: %s: %w", s.URL(), err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("saga: service %s closed", s.URL())
	}
	s.nextID++
	id := fmt.Sprintf("local.%s.%d", s.name, s.nextID)
	s.mu.Unlock()

	ctx, cancel := s.clock.WithCancel(context.Background())
	j := NewJobRecord(id, &s.mu, s.clock, cancel)
	cores := d.TotalCores
	if cores <= 0 {
		cores = 1
	}
	alloc := infra.Allocation{
		ID:      id,
		Site:    s.Site(),
		Cores:   cores,
		Nodes:   []string{s.name},
		Granted: j.SubmitTime(),
	}
	s.wg.Add(1)
	s.clock.Go(func() {
		defer s.wg.Done()
		defer cancel()
		j.Start()
		if d.Walltime > 0 {
			// The walltime watchdog: cancels the run once it elapses, and is
			// disarmed when the payload returns first.
			wctx, disarm := s.clock.WithCancel(ctx)
			defer disarm()
			s.wg.Add(1)
			s.clock.Go(func() {
				defer s.wg.Done()
				if s.clock.Sleep(wctx, d.Walltime) {
					cancel()
				}
			})
		}
		err := d.Payload(ctx, alloc)
		j.FinishPayload(ctx.Err(), err)
	})
	return j, nil
}

// Close implements Service.
func (s *LocalService) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

var _ Service = (*LocalService)(nil)

// Registry resolves resource URLs ("hpc://stampede") to services, letting
// pilot descriptions name resources symbolically, as the Pilot-API does.
type Registry struct {
	mu       sync.Mutex
	services map[string]Service
	urls     []string // registration order: a map's would be random
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{services: make(map[string]Service)} }

// Register adds a service under its URL; a second service under the same
// URL replaces the first and keeps its place in the order.
func (r *Registry) Register(s Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[s.URL()]; !ok {
		r.urls = append(r.urls, s.URL())
	}
	r.services[s.URL()] = s
}

// Lookup resolves a URL.
func (r *Registry) Lookup(url string) (Service, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.services[url]
	if !ok {
		return nil, fmt.Errorf("saga: no service registered for %q", url)
	}
	return s, nil
}

// URLs lists registered service URLs in registration order.
func (r *Registry) URLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.urls...)
}

// CloseAll closes every registered service, in registration order: a
// Close that parks until its jobs end makes the order part of the schedule.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range r.urls {
		r.services[u].Close()
	}
}
