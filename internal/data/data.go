// Package data implements Pilot-Data [66]: data-units as first-class
// citizens of resource management. A Service federates per-site object
// stores behind one namespace, models transfer costs between sites
// (latency + size/bandwidth, slept in virtual time), supports replication
// and exposes the placement queries (Locate/Size) that data-aware
// schedulers use.
//
// Content versus logical size: a data-unit carries real bytes (Content)
// that application kernels compute on, and a LogicalSize used by the
// transfer-cost model. Experiments that sweep multi-gigabyte workloads set
// LogicalSize large while keeping Content small, preserving the paper's
// transfer/compute ratios without allocating gigabytes.
package data

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// Unit describes a data-unit to register with the service.
type Unit struct {
	// ID is the namespace-unique identifier.
	ID string
	// Content is the actual payload available to tasks (may be nil for
	// purely synthetic units).
	Content []byte
	// LogicalSize is the size used by the transfer model; when zero it
	// defaults to len(Content).
	LogicalSize int64
	// Site is the initial placement.
	Site infra.Site
}

// Link models the connectivity between two sites.
type Link struct {
	// Bandwidth in bytes per modeled second.
	Bandwidth float64
	// Latency per transfer.
	Latency time.Duration
}

// Config configures a Service.
type Config struct {
	// Clock supplies virtual time; defaults to a private vclock.Virtual.
	Clock vclock.Clock
	// LocalBandwidth is the within-site read/write bandwidth (default
	// 500 MB/s — parallel filesystem class).
	LocalBandwidth float64
	// DefaultLink models every cross-site transfer (default 12.5 MB/s /
	// 50 ms — a 100 Mbit WAN).
	DefaultLink Link
}

// Stats aggregates the service's observed data traffic.
type Stats struct {
	// LocalReads counts reads served by a co-located replica.
	LocalReads int
	// RemoteReads counts reads that paid a cross-site transfer.
	RemoteReads int
	// Replications counts StageIn copies performed.
	Replications int
	// BytesMoved is the cross-site volume in (logical) bytes.
	BytesMoved int64
	// TransferTime is the summed modeled time spent in cross-site
	// transfers.
	TransferTime time.Duration
}

type object struct {
	content []byte
	logical int64
	// replicas is the set of sites holding the object.
	replicas map[infra.Site]struct{}
}

// Service is the Pilot-Data implementation of core.DataService.
type Service struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]*object
	stats   Stats
}

// ErrUnknownUnit is returned for operations on unregistered data-units.
var ErrUnknownUnit = errors.New("data: unknown data-unit")

// NewService creates a Pilot-Data service.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewVirtual(vclock.Epoch)
	}
	if cfg.LocalBandwidth <= 0 {
		cfg.LocalBandwidth = 500e6
	}
	if cfg.DefaultLink.Bandwidth <= 0 {
		cfg.DefaultLink = Link{Bandwidth: 12.5e6, Latency: 50 * time.Millisecond}
	}
	return &Service{
		cfg:     cfg,
		objects: make(map[string]*object),
	}
}

// Put registers a data-unit at its initial site. It pays the local write
// cost.
func (s *Service) Put(ctx context.Context, u Unit) error {
	if u.ID == "" {
		return errors.New("data: unit needs an ID")
	}
	if u.Site == "" {
		return errors.New("data: unit needs a site")
	}
	logical := u.LogicalSize
	if logical == 0 {
		logical = int64(len(u.Content))
	}
	// Local write cost.
	if !s.cfg.Clock.Sleep(ctx, s.localCost(logical)) {
		return ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[u.ID] = &object{
		content:  u.Content,
		logical:  logical,
		replicas: map[infra.Site]struct{}{u.Site: {}},
	}
	return nil
}

// localCost is the modeled time of a within-site read or write.
func (s *Service) localCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / s.cfg.LocalBandwidth * float64(time.Second))
}

// transferCost is the modeled time of moving bytes across a link.
func (s *Service) transferCost(l Link, bytes int64) time.Duration {
	return l.Latency + time.Duration(float64(bytes)/l.Bandwidth*float64(time.Second))
}

// Locate implements core.DataService. Sites are returned in deterministic
// (sorted) order.
func (s *Service) Locate(id string) ([]infra.Site, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return nil, false
	}
	out := make([]infra.Site, 0, len(o.replicas))
	for site := range o.replicas {
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// Size implements core.DataService.
func (s *Service) Size(id string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return 0, false
	}
	return o.logical, true
}

// StageIn implements core.DataService: it replicates the unit to the
// target site, paying one cross-site transfer if no replica is local.
func (s *Service) StageIn(ctx context.Context, id string, to infra.Site) error {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownUnit, id)
	}
	if _, have := o.replicas[to]; have {
		s.mu.Unlock()
		return nil
	}
	if len(o.replicas) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("data: unit %q has no replicas", id)
	}
	cost := s.transferCost(s.cfg.DefaultLink, o.logical)
	s.mu.Unlock()

	if !s.cfg.Clock.Sleep(ctx, cost) {
		return ctx.Err()
	}

	s.mu.Lock()
	o.replicas[to] = struct{}{}
	s.stats.Replications++
	s.stats.BytesMoved += o.logical
	s.stats.TransferTime += cost
	s.mu.Unlock()
	return nil
}

// Read implements core.DataService: reads the content at the given site,
// paying local cost for a resident replica or a cross-site transfer
// otherwise (read-through, no replica is created).
func (s *Service) Read(ctx context.Context, id string, at infra.Site) ([]byte, error) {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownUnit, id)
	}
	var cost time.Duration
	var remote bool
	if _, have := o.replicas[at]; have {
		cost = s.localCost(o.logical)
	} else {
		if len(o.replicas) == 0 {
			s.mu.Unlock()
			return nil, fmt.Errorf("data: unit %q has no replicas", id)
		}
		cost = s.transferCost(s.cfg.DefaultLink, o.logical)
		remote = true
	}
	content := o.content
	logical := o.logical
	s.mu.Unlock()

	if !s.cfg.Clock.Sleep(ctx, cost) {
		return nil, ctx.Err()
	}
	s.mu.Lock()
	if remote {
		s.stats.RemoteReads++
		s.stats.BytesMoved += logical
		s.stats.TransferTime += cost
	} else {
		s.stats.LocalReads++
	}
	s.mu.Unlock()
	return content, nil
}

// Write implements core.DataService: creates or replaces a data-unit at a
// site, paying the local write cost.
func (s *Service) Write(ctx context.Context, id string, content []byte, at infra.Site) error {
	return s.Put(ctx, Unit{ID: id, Content: content, Site: at})
}

// Stats returns a snapshot of the observed traffic.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (s *Service) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

var _ core.DataService = (*Service)(nil)
