package main

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

const (
	pilotCount      = 20
	pilotCores      = 32
	pilotMaxRetries = 3
)

// pilotResources are the five backends the 20 pilots are spread over,
// four each, in submission order.
var pilotResources = []string{
	"hpc://stampede", "hpc://comet", "htc://osg", "cloud://ec2", "local://localhost",
}

// runPilotBacklog is one repetition of pilot-backlog: every unit is
// submitted at once, before most pilots have left their queues, so the
// planner works against a deep pending queue for the whole run.
func runPilotBacklog(e *repEnv) (*repOutcome, error) {
	n := e.sizes.PilotUnits
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, Seed: e.seed})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var sched *tracedScheduler
	var mgr *core.Manager
	runSpan := 0
	if e.tr != nil {
		tb.Virtual.StartRecorder(vclock.RecorderConfig{})
		runSpan = e.tr.open(0, "pilot.run", simNanos(tb.Clock))
		sched = &tracedScheduler{Scheduler: firstFit{}, tr: e.tr, parent: runSpan, clock: tb.Clock}
		mgr = tb.NewManager(sched)
	} else {
		mgr = tb.NewManager(nil)
	}
	pilots := make([]*core.Pilot, 0, pilotCount)
	for i := 0; i < pilotCount; i++ {
		p, err := mgr.SubmitPilot(core.PilotDescription{
			Name:     fmt.Sprintf("p%d", i),
			Resource: pilotResources[i%len(pilotResources)],
			Cores:    pilotCores,
			Walltime: 2 * time.Hour,
		})
		if err != nil {
			return nil, err
		}
		pilots = append(pilots, p)
	}

	// Unit shapes: cores from the workload's own labeled stream at
	// submission, runtime from the unit's stream when it runs.
	shapes := tb.Root.Named("bench/pilot-backlog/cores")
	var depthPeak, depthSum int64
	body := func(ctx context.Context, tc core.TaskContext) error {
		d := time.Duration(10+tc.Stream.Named("runtime").Intn(50)) * time.Second
		if !tc.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
	run := body
	if e.tr != nil {
		// Traced: a span per attempt, and the pending depth the planner
		// rescans sampled at every completion.
		run = func(ctx context.Context, tc core.TaskContext) error {
			id := e.tr.open(runSpan, "core.unit.Run", simNanos(tb.Clock))
			err := body(ctx, tc)
			e.tr.close(id, simNanos(tb.Clock))
			depth := int64(mgr.QueueDepth())
			depthSum += depth
			depthPeak = max(depthPeak, depth)
			return err
		}
	}
	descs := make([]core.UnitDescription, n)
	for i := range descs {
		descs[i] = core.UnitDescription{
			Name:       fmt.Sprintf("u%d", i),
			Cores:      1 + shapes.SplitLabel(uint64(i)).Intn(4),
			MaxRetries: pilotMaxRetries,
			Run:        run,
		}
	}

	if !e.startTimed() {
		return nil, nil
	}
	simStart := tb.Clock.Now()
	h0 := time.Now()
	units, err := mgr.SubmitUnits(descs)
	submitHost := time.Since(h0)
	if err != nil {
		return nil, err
	}
	depthPeak = max(depthPeak, int64(mgr.QueueDepth()))
	if err := mgr.WaitAll(ctx); err != nil {
		return nil, fmt.Errorf("waiting for %d units: %w", n, err)
	}
	makespan := tb.Clock.Now().Sub(simStart)
	e.stopTimed()

	out := &repOutcome{Attempted: int64(n), SimMakespan: makespan.Seconds()}
	dg := digest(0)
	dg.mixFloat(makespan.Seconds())
	var done, failed, attempts int64
	turnaround := make([]float64, 0, n)
	waiting := make([]float64, 0, n)
	for _, u := range units {
		attempts += int64(u.Attempts())
		dg.mix(uint64(u.EndTime().Sub(vclock.Epoch)))
		dg.mix(uint64(u.State())<<32 | uint64(uint32(u.Attempts())))
		if u.State() == core.UnitDone && u.Attempts() <= pilotMaxRetries+1 {
			done++
			turnaround = append(turnaround, u.TurnaroundTime().Seconds())
			waiting = append(waiting, u.WaitingTime().Seconds())
			continue
		}
		failed++
		if len(out.Notes) == 0 {
			out.Notes = append(out.Notes, fmt.Sprintf("unit %s ended %v after %d attempts: %v", u.ID(), u.State(), u.Attempts(), u.Err()))
		}
	}
	out.Failed = failed
	out.Digest = uint64(dg)

	var startups []float64
	for _, p := range pilots {
		if s := p.StartupTime(); s > 0 {
			startups = append(startups, s.Seconds())
		}
	}
	var dispatched int
	for _, w := range mgr.Watermarks() {
		dispatched += w.Dispatched
	}
	ta := metrics.Summarize(turnaround)
	out.Layer = map[string]float64{
		"core.submit_units_host_s":     submitHost.Seconds(),
		"core.units_done":              float64(done),
		"core.units_failed":            float64(failed),
		"core.attempts_per_unit":       float64(attempts) / float64(n),
		"core.sim_turnaround_p50_s":    ta.Median,
		"core.sim_turnaround_p95_s":    ta.P95,
		"core.sim_waiting_p50_s":       metrics.Summarize(waiting).Median,
		"core.pilot_startup_sim_p50_s": metrics.Summarize(startups).Median,
		"plan.dispatched":              float64(dispatched),
		"core.queue_depth_peak":        float64(depthPeak),
		"core.queue_depth_sum":         float64(depthSum),
	}
	if e.tr != nil {
		e.tr.close(runSpan, simNanos(tb.Clock))
		out.Layer["core.select_pilot_calls"] = float64(sched.calls)
		if sched.calls > 0 {
			out.Layer["core.select_pilot_host_ns_per_call"] = float64(sched.host.Nanoseconds()) / float64(sched.calls)
		}
		out.Layer["vclock.decisions_per_op"] = float64(tb.Virtual.RecorderState().Decisions) / float64(n)
		out.Layer["vclock.stalls"] = float64(tb.Virtual.Stalls())
	}
	return out, nil
}

// pilotExplainNS prices a backlog repetition from the ladder: one shallow
// round trip per attempt, plus the dispatch pass's rescan of every unit
// still pending at every completion.
func pilotExplainNS(m map[string]float64, _ int64) float64 {
	attempts := m["core.attempts_per_unit"] * m["core.units_done"]
	return attempts*m["core.unit_roundtrip_ns"] +
		m["core.queue_depth_sum"]*m["core.dispatch_tick_ns_pending1e3"]/1000
}
