package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// span is one call into a layer as seen from outside it. Host times are
// nanoseconds since the traced repetition began; sim times are modeled
// nanoseconds since vclock.Epoch, or -1 where the call runs off the
// executor token (compute kernels) and must not read the clock.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	HostStart int64  `json:"host_start"`
	HostEnd   int64  `json:"host_end"`
	SimStart  int64  `json:"sim_start"`
	SimEnd    int64  `json:"sim_end"`
}

// tracer keeps the traced repetition's spans in memory; they are written
// out when the benchmark ends. Wrapper calls arrive one at a time on the
// executor token, compute kernels arrive concurrently, hence the mutex.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	gorPeak int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// open starts a span; the returned id closes it.
func (t *tracer) open(parent int, name string, simNow int64) int {
	host := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, HostStart: host, SimStart: simNow, SimEnd: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int, simNow int64) {
	host := time.Since(t.origin).Nanoseconds()
	n := runtime.NumGoroutine()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.HostEnd, s.SimEnd = host, simNow
	if n > t.gorPeak {
		t.gorPeak = n
	}
	t.mu.Unlock()
}

// simNanos reads the modeled instant as nanoseconds since the epoch.
func simNanos(c vclock.Clock) int64 { return c.Now().Sub(vclock.Epoch).Nanoseconds() }

// writeSpans writes the span file.
func writeSpans(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracedBus wraps the Bus a workload is handed. It embeds the interface
// and overrides only the three hot calls, so everything else reaches the
// transport untouched. PublishValues and FetchOrWait park and hand the
// token away, so their spans give counts and modeled time inside the
// call, not host cost; Commit never parks, so its host time is exact.
type tracedBus struct {
	streaming.Bus
	tr     *tracer
	parent int

	publishCalls, publishMsgs int64
	publishSim                time.Duration
	fetchCalls, fetchMsgs     int64
	fetchEmpty                int64
	fetchSim                  time.Duration
	commitCalls               int64
	commitHost                time.Duration
	// sample, if set, runs after every publish and fetch (lag sampling).
	sample func()
}

func (b *tracedBus) PublishValues(ctx context.Context, topic string, values [][]byte) error {
	clock := b.Bus.Clock()
	s0 := simNanos(clock)
	id := b.tr.open(b.parent, "streaming.bus.PublishValues", s0)
	err := b.Bus.PublishValues(ctx, topic, values)
	s1 := simNanos(clock)
	b.tr.close(id, s1)
	b.publishCalls++
	if err == nil {
		b.publishMsgs += int64(len(values))
	}
	b.publishSim += time.Duration(s1 - s0)
	if b.sample != nil {
		b.sample()
	}
	return err
}

func (b *tracedBus) FetchOrWait(ctx context.Context, topic string, parts []int, offsets []int64, start, max int) (int, []streaming.Message, error) {
	clock := b.Bus.Clock()
	s0 := simNanos(clock)
	id := b.tr.open(b.parent, "streaming.bus.FetchOrWait", s0)
	i, batch, err := b.Bus.FetchOrWait(ctx, topic, parts, offsets, start, max)
	s1 := simNanos(clock)
	b.tr.close(id, s1)
	b.fetchCalls++
	b.fetchMsgs += int64(len(batch))
	if len(batch) == 0 {
		b.fetchEmpty++
	}
	b.fetchSim += time.Duration(s1 - s0)
	if b.sample != nil {
		b.sample()
	}
	return i, batch, err
}

func (b *tracedBus) Commit(topic string, partition int, through int64) error {
	s := simNanos(b.Bus.Clock())
	id := b.tr.open(b.parent, "streaming.bus.Commit", s)
	h0 := time.Now()
	err := b.Bus.Commit(topic, partition, through)
	b.commitHost += time.Since(h0)
	b.tr.close(id, s)
	b.commitCalls++
	return err
}

// report adds the wrapper's tallies to a layer map.
func (b *tracedBus) report(layer map[string]float64) {
	layer["streaming.bus.publish_calls"] = float64(b.publishCalls)
	layer["streaming.bus.publish_msgs"] = float64(b.publishMsgs)
	layer["streaming.bus.publish_blocked_sim_s"] = b.publishSim.Seconds()
	layer["streaming.bus.fetch_calls"] = float64(b.fetchCalls)
	layer["streaming.bus.fetch_msgs"] = float64(b.fetchMsgs)
	layer["streaming.bus.fetch_blocked_sim_s"] = b.fetchSim.Seconds()
	layer["streaming.bus.commit_calls"] = float64(b.commitCalls)
	if b.fetchCalls > 0 {
		layer["streaming.bus.fetch_empty_frac"] = float64(b.fetchEmpty) / float64(b.fetchCalls)
		layer["streaming.bus.msgs_per_fetch"] = float64(b.fetchMsgs) / float64(b.fetchCalls)
	}
	if b.commitCalls > 0 {
		layer["streaming.bus.commit_host_ns_per_call"] = float64(b.commitHost.Nanoseconds()) / float64(b.commitCalls)
	}
}

// firstFit is the manager's default policy, restated so the traced
// scheduler has something to wrap: bind to the first candidate.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) SelectPilot(_ *core.ComputeUnit, candidates []*core.Pilot, _ core.DataService) *core.Pilot {
	return candidates[0]
}

// tracedScheduler wraps a core.Scheduler; SelectPilot runs under the
// manager's lock and never parks, so outside timing is exact.
type tracedScheduler struct {
	core.Scheduler
	tr     *tracer
	parent int
	clock  vclock.Clock

	calls int64
	host  time.Duration
}

func (s *tracedScheduler) SelectPilot(cu *core.ComputeUnit, candidates []*core.Pilot, data core.DataService) *core.Pilot {
	sim := simNanos(s.clock)
	id := s.tr.open(s.parent, "core.Scheduler.SelectPilot", sim)
	h0 := time.Now()
	p := s.Scheduler.SelectPilot(cu, candidates, data)
	s.host += time.Since(h0)
	s.tr.close(id, sim)
	s.calls++
	return p
}
