package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gopilot/internal/metrics"
)

// sizes fixes the amount of work in one repetition of every workload.
// A repetition always does this much work, never a fixed duration; the
// time budget only decides how many repetitions a run takes.
type sizes struct {
	StreamMessages int // stream-*: messages per repetition
	PilotUnits     int // pilot-backlog: units submitted at once
	WordsPerSplit  int // mapreduce-wordcount: words in each of the 16 splits
	Vocabulary     int // mapreduce-wordcount: distinct words
	ChaosSeeds     int // chaos-fuzz: consecutive seeds per repetition
}

var fullSizes = sizes{
	StreamMessages: 6_000_000,
	PilotUnits:     4000,
	WordsPerSplit:  200_000,
	Vocabulary:     50_000,
	ChaosSeeds:     150,
}

// smokeSizes is the 1/100 scale bench_test.go runs under plain `go test`.
var smokeSizes = sizes{
	StreamMessages: 60_000,
	PilotUnits:     40,
	WordsPerSplit:  2000,
	Vocabulary:     500,
	ChaosSeeds:     2,
}

// repEnv is what a workload sees of the harness during one repetition.
type repEnv struct {
	seed  int64
	sizes sizes
	tr    *tracer // nil on untraced repetitions
	// setupOnly marks a pass that exists to sample set-up once more: the
	// workload returns as soon as startTimed tells it so.
	setupOnly bool

	t0       time.Time
	setup    time.Duration
	wall     time.Duration
	host     hostReading // calibration reading around this repetition
	started  bool
	stopped  bool
	m0, m1   runtime.MemStats
	gorPeak  int
	heapPeak uint64
	out      *repOutcome // set by runRep once the workload returned
}

// startTimed ends set-up and starts the timed region. Everything a
// workload does before this call — testbed, cluster, topic, pilots,
// corpus, Data.Put — is set-up. It reports whether the workload should go
// on into the timed region; on a set-up-only pass it tears down instead.
func (e *repEnv) startTimed() bool {
	e.setup = time.Since(e.t0)
	if e.setupOnly {
		return false
	}
	e.sampleGoroutines()
	runtime.ReadMemStats(&e.m0)
	e.started = true
	e.t0 = time.Now()
	return true
}

// stopTimed ends the timed region: the last op is done. Reference
// computations and teardown come after it.
func (e *repEnv) stopTimed() {
	e.wall = time.Since(e.t0)
	runtime.ReadMemStats(&e.m1)
	if e.m1.HeapInuse > e.heapPeak {
		e.heapPeak = e.m1.HeapInuse
	}
	e.sampleGoroutines()
	e.stopped = true
}

func (e *repEnv) sampleGoroutines() {
	if n := runtime.NumGoroutine(); n > e.gorPeak {
		e.gorPeak = n
	}
}

// repOutcome is what a workload reports about one repetition.
type repOutcome struct {
	Attempted int64
	Failed    int64
	// SimMakespan is the modeled time from first submit/publish to last op
	// done, in seconds.
	SimMakespan float64
	// Digest fingerprints the repetition's observable result (sim
	// makespan, final offsets / unit end instants / state hashes). Every
	// repetition of a run uses the same seed, so digests must agree.
	Digest uint64
	// Layer holds the per-layer counts and sim times the workload can
	// read from outside; wrapper-derived ones are present only when
	// traced.
	Layer map[string]float64
	// Notes are human-readable findings (first violations, mismatches).
	Notes []string
}

// digest is a splitmix64 fold, the same mixer the repository uses for
// its own state hashes.
type digest uint64

func (d *digest) mix(v uint64) {
	h := uint64(*d) ^ v
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	*d = digest(h)
}

func (d *digest) mixFloat(f float64) { d.mix(math.Float64bits(f)) }

func (d *digest) mixString(s string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	d.mix(h)
}

// runRep runs one repetition of w. GC runs first so every repetition
// starts from a collected heap and one rep's garbage is not billed to
// the next.
func runRep(w *workloadDef, seed int64, sz sizes, tr *tracer) (*repEnv, error) {
	return runPass(w, &repEnv{seed: seed, sizes: sz, tr: tr})
}

// timedReps runs the warm-up and the timed repetitions of a run: one
// untimed repetition, then repetitions until deadline (at least minReps),
// the host-speed index taken before the first, between every two and after
// the last, so each repetition has a reading on either side of it.
func timedReps(w *workloadDef, cfg runConfig, deadline time.Time) ([]*repEnv, error) {
	if _, err := runRep(w, cfg.Seed, cfg.Sizes, nil); err != nil { // warm-up
		return nil, err
	}
	var reps []*repEnv
	before, err := cfg.Calib.read()
	if err != nil {
		return nil, err
	}
	for len(reps) < cfg.MinReps || time.Now().Before(deadline) {
		r, err := runRep(w, cfg.Seed, cfg.Sizes, nil)
		if err != nil {
			return nil, err
		}
		after, err := cfg.Calib.read()
		if err != nil {
			return nil, err
		}
		r.host = around(before, after)
		before = after
		reps = append(reps, r)
	}
	return reps, nil
}

func runPass(w *workloadDef, e *repEnv) (*repEnv, error) {
	runtime.GC()
	e.t0 = time.Now()
	out, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if e.setupOnly {
		return e, nil
	}
	if !e.started || !e.stopped {
		return nil, fmt.Errorf("%s: workload did not mark its timed region", w.Name)
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no ops attempted", w.Name)
	}
	if e.tr != nil {
		e.gorPeak = max(e.gorPeak, e.tr.gorPeak)
	}
	e.out = out
	return e, nil
}

const (
	minExtraSetups   = 40
	extraSetups      = 300
	extraSetupBudget = time.Second
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed int64
	// Seconds is how long the run measures: warm-up, repetitions,
	// calibration and the extra set-up passes all fall inside it, so a run
	// ends within one repetition of it.
	Seconds float64
	MinReps int
	Sizes   sizes
	Trace   bool
	Ladder  ladderBudget
	// Calib reads the host-speed index; nil reads 1.
	Calib *calibrator
}

// result is one workload run: the line the driver reads plus what the
// human-readable table shows.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64 // every end-to-end metric, or every per-layer one when traced
	Setup     metrics.Summary    // over the timed repetitions; fewer than ten beyond any percentile, so only median, min, max and n are reported
	Wall      metrics.Summary
	Walls     []float64       // every timed repetition's wall, in order
	NormWall  metrics.Summary // wall ÷ host-speed index, over the timed repetitions
	Index     metrics.Summary // host-speed index, over the timed repetitions
	Indexes   []float64
	Hosts     []hostReading // per repetition, part by part
	Digest    uint64
	Notes     []string
	Spans     []span
}

// runWorkload is the run shape: one untimed warm-up repetition, then
// timed repetitions of the fixed work until the time is spent (at least
// MinReps), each on a fresh testbed with the same seed and each with a
// host-speed reading on either side. A traced run spends half the time on
// untraced repetitions (the reference the overhead is measured against),
// then runs one repetition with the wrappers and recorder on, one at
// GOMAXPROCS=NumCPU, and the ladder.
func runWorkload(w *workloadDef, cfg runConfig) (*result, error) {
	start := time.Now()
	window := time.Duration(cfg.Seconds * float64(time.Second))
	share := window - extraSetupBudget - window/10
	if cfg.Trace {
		share = window / 2
	}
	reps, err := timedReps(w, cfg, start.Add(share))
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.Name, Seed: cfg.Seed, Metrics: map[string]float64{}}
	first := reps[0].out
	res.Attempted, res.Failed, res.Digest = first.Attempted, first.Failed, first.Digest
	res.Notes = append(res.Notes, first.Notes...)
	var setups, walls, normWalls, indexes []float64
	var mallocs, bytes, ops uint64
	var numGC uint32
	var heapPeak uint64
	gorPeak := 0
	for i, r := range reps {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		normWalls = append(normWalls, r.wall.Seconds()/r.host.index())
		indexes = append(indexes, r.host.index())
		res.Hosts = append(res.Hosts, r.host)
		mallocs += r.m1.Mallocs - r.m0.Mallocs
		bytes += r.m1.TotalAlloc - r.m0.TotalAlloc
		numGC += r.m1.NumGC - r.m0.NumGC
		ops += uint64(r.out.Attempted)
		gorPeak = max(gorPeak, r.gorPeak)
		heapPeak = max(heapPeak, r.heapPeak)
		if r.out.Digest != first.Digest || r.out.Failed != first.Failed {
			// Same seed, different result: the run is not reproducible.
			// Every op of the odd repetition out counts as failed.
			res.Failed = first.Attempted
			res.Notes = append(res.Notes, fmt.Sprintf("rep %d digest %016x failed=%d differs from rep 0 digest %016x failed=%d",
				i, r.out.Digest, r.out.Failed, first.Digest, first.Failed))
		}
	}
	// Set-up is short and jitters more than the work does, so it is set up
	// many more times — minExtraSetups passes, then up to extraSetups while
	// the run's time lasts, or extraSetupBudget of set-up time — and the
	// median taken over all of them.
	var setupSpent time.Duration
	for i := 0; i < extraSetups && setupSpent < extraSetupBudget && (i < minExtraSetups || time.Since(start) < window); i++ {
		r, err := runPass(w, &repEnv{seed: cfg.Seed, sizes: cfg.Sizes, setupOnly: true})
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		setupSpent += r.setup
	}
	res.Setup, res.Wall, res.Walls = metrics.Summarize(setups), metrics.Summarize(walls), walls
	res.NormWall, res.Index, res.Indexes = metrics.Summarize(normWalls), metrics.Summarize(indexes), indexes
	res.Correct = res.Failed == 0

	if !cfg.Trace {
		res.Metrics["setup_s"] = res.Setup.Median / res.Index.Median
		res.Metrics["throughput_ops_s"] = float64(first.Attempted) / res.NormWall.Median
		res.Metrics["allocs_per_op"] = float64(mallocs) / float64(ops)
		res.Metrics["alloc_bytes_per_op"] = float64(bytes) / float64(ops)
		res.Metrics["sim_makespan_s"] = first.SimMakespan
		res.Metrics["peak_rss_mb"] = peakRSSMB()
		return res, nil
	}

	// Traced repetition: wrappers and recorder on, spans kept in memory.
	tr := newTracer()
	traced, err := runRep(w, cfg.Seed, cfg.Sizes, tr)
	if err != nil {
		return nil, err
	}
	if traced.out.Digest != first.Digest {
		// The wrappers must observe, never steer.
		res.Failed, res.Correct = first.Attempted, false
		res.Notes = append(res.Notes, fmt.Sprintf("traced rep digest %016x differs from untraced %016x", traced.out.Digest, first.Digest))
	}
	res.Spans = tr.spans
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0
	}
	for k, v := range traced.out.Layer {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead_frac"] = traced.wall.Seconds()/res.Wall.Median - 1
	res.Metrics["trace.spans"] = float64(len(tr.spans))

	// One repetition on every CPU: single-threaded wall ÷ multi-threaded
	// wall is what more cores would buy.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	multi, err := runRep(w, cfg.Seed, cfg.Sizes, nil)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	res.Metrics["runtime.procs1_slowdown"] = res.Wall.Median / multi.wall.Seconds()
	res.Metrics["host.speed_index"] = res.Index.Median
	res.Metrics["host.raw_throughput_ops_s"] = float64(first.Attempted) / res.Wall.Median

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	res.Metrics["runtime.num_gc"] = float64(numGC) / float64(len(reps))
	res.Metrics["runtime.heap_inuse_peak_mb"] = float64(max(heapPeak, traced.heapPeak)) / (1 << 20)
	res.Metrics["runtime.goroutines_peak"] = float64(max(gorPeak, traced.gorPeak))

	if cfg.Ladder.Samples > 0 {
		for k, v := range runLadder(cfg.Seed, cfg.Ladder) {
			res.Metrics[k] = v
		}
	}
	// Close the loop the ROADMAP asks for: Σ(traced count × ladder unit
	// cost) ÷ traced wall. What the fraction leaves unexplained is
	// scheduling between the layers, GC, and work no rung prices yet.
	res.Metrics["attrib.explained_frac"] = w.explainNS(res.Metrics, first.Attempted) / float64(traced.wall.Nanoseconds())
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return fallbackRSSMB()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return fallbackRSSMB()
}

// fallbackRSSMB stands in where /proc is not mounted: memory obtained
// from the OS by the Go runtime, the closest portable figure.
func fallbackRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
