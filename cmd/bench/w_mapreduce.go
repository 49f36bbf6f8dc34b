package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"gopilot/internal/apps/wordcount"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/experiments"
	"gopilot/internal/mapreduce"
	"gopilot/internal/vclock"
)

const (
	wcSplits   = 16
	wcReducers = 8
	wcCores    = 8
)

// kernelMeter accumulates the host time of a Mapper or Reducer. The
// kernels run concurrently inside parallel compute phases, hence atomics;
// they are pure CPU, so timing them from outside is exact.
type kernelMeter struct {
	calls, emits, hostNS atomic.Int64
}

// runWordcount is one repetition of mapreduce-wordcount: a Zipf corpus
// staged as 16 data-units, counted by 16 map tasks with a combiner and 8
// reducers on an 8-core YARN pilot, collected, and compared with a plain
// single-goroutine count of the same corpus.
func runWordcount(e *repEnv) (*repOutcome, error) {
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, QueueWaitMean: 5, Seed: e.seed})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "mr", Resource: "yarn://yarn", Cores: wcCores, Walltime: 2 * time.Hour,
	}); err != nil {
		return nil, err
	}
	corpus := wordcount.GenerateCorpus(wcSplits, e.sizes.WordsPerSplit, e.sizes.Vocabulary, tb.Root.Named("corpus"))
	ids := make([]string, wcSplits)
	for i, s := range corpus {
		ids[i] = fmt.Sprintf("wc-split-%d", i)
		if err := tb.Data.Put(ctx, data.Unit{ID: ids[i], Content: []byte(s), LogicalSize: 128e6, Site: "yarn"}); err != nil {
			return nil, err
		}
	}
	// Production-scale modeled cost per task, as E5: 30 s per 128 MB map
	// split, 20 s per reduce partition.
	job := wordcount.Config("wc", ids, wcReducers)
	job.MapCost = 30 * time.Second
	job.ReduceCost = 20 * time.Second

	var mapK, combineK, reduceK kernelMeter
	runSpan := 0
	if e.tr != nil {
		tb.Virtual.StartRecorder(vclock.RecorderConfig{})
		runSpan = e.tr.open(0, "mapreduce.run", simNanos(tb.Clock))
		job.Map = meteredMapper(job.Map, &mapK, e.tr, runSpan)
		job.Combine = meteredReducer(job.Combine, &combineK)
		job.Reduce = meteredReducer(job.Reduce, &reduceK)
	}

	if !e.startTimed() {
		return nil, nil
	}
	h0 := time.Now()
	res, err := mapreduce.Run(ctx, mgr, job)
	if err != nil {
		return nil, err
	}
	runHost := time.Since(h0)
	h1 := time.Now()
	got, err := mapreduce.Collect(ctx, mgr, res)
	if err != nil {
		return nil, err
	}
	collectHost := time.Since(h1)
	makespan := res.Elapsed
	e.stopTimed()

	// Reference: a plain map[string]int over the same corpus.
	want := wordcount.Sequential(corpus)
	words := int64(wcSplits * e.sizes.WordsPerSplit)
	out := &repOutcome{Attempted: words, SimMakespan: makespan.Seconds()}
	dg := digest(0)
	dg.mixFloat(makespan.Seconds())
	counted := make(map[string]int, len(got))
	for _, kv := range got {
		dg.mixString(kv.Key)
		dg.mixString(kv.Value)
		c, err := strconv.Atoi(kv.Value)
		if err != nil {
			c = -1
		}
		counted[kv.Key] += c
	}
	// A miscounted word fails every one of its occurrences.
	var wrong int64
	for w, c := range want {
		if counted[w] != c {
			wrong += int64(c)
			if len(out.Notes) == 0 {
				out.Notes = append(out.Notes, fmt.Sprintf("word %q counted %d, reference %d", w, counted[w], c))
			}
		}
	}
	if len(counted) > len(want) {
		wrong += int64(len(counted) - len(want))
		out.Notes = append(out.Notes, fmt.Sprintf("%d words in the output are not in the corpus", len(counted)-len(want)))
	}
	out.Failed = min(words, wrong)
	out.Digest = uint64(dg)

	out.Layer = map[string]float64{
		"mapreduce.map_tasks":          float64(res.MapTasks),
		"mapreduce.reduce_tasks":       float64(res.ReduceTasks),
		"mapreduce.sim_map_phase_s":    res.MapElapsed.Seconds(),
		"mapreduce.sim_reduce_phase_s": res.ReduceElapsed.Seconds(),
		"mapreduce.collect_host_s":     collectHost.Seconds(),
	}
	if e.tr != nil {
		e.tr.close(runSpan, simNanos(tb.Clock))
		mapS := float64(mapK.hostNS.Load()) / 1e9
		redS := float64(combineK.hostNS.Load()+reduceK.hostNS.Load()) / 1e9
		out.Layer["mapreduce.map_kernel_host_s"] = mapS
		out.Layer["mapreduce.reduce_kernel_host_s"] = redS
		out.Layer["mapreduce.framework_host_s"] = max(0, runHost.Seconds()-(mapS+redS)/float64(runtime.GOMAXPROCS(0)))
		out.Layer["mapreduce.shuffle_kvs"] = float64(combineK.emits.Load())
		out.Layer["vclock.decisions_per_op"] = float64(tb.Virtual.RecorderState().Decisions) / float64(words)
		out.Layer["vclock.stalls"] = float64(tb.Virtual.Stalls())
	}
	return out, nil
}

// meteredMapper wraps a Mapper: one span per call (one call per split;
// sim times are -1, a compute kernel must not read the clock) and the
// host time of the whole call, emits included.
func meteredMapper(inner mapreduce.Mapper, k *kernelMeter, tr *tracer, parent int) mapreduce.Mapper {
	return func(ctx context.Context, key, value string, emit func(k, v string)) error {
		id := tr.open(parent, "mapreduce.Mapper", -1)
		h0 := time.Now()
		var emits int64
		err := inner(ctx, key, value, func(k, v string) { emits++; emit(k, v) })
		k.hostNS.Add(time.Since(h0).Nanoseconds())
		k.calls.Add(1)
		k.emits.Add(emits)
		tr.close(id, -1)
		return err
	}
}

// meteredReducer wraps a Reducer or Combiner. It is called once per key
// — hundreds of thousands of times — so it keeps tallies, not spans.
func meteredReducer(inner mapreduce.Reducer, k *kernelMeter) mapreduce.Reducer {
	return func(ctx context.Context, key string, values []string, emit func(k, v string)) error {
		h0 := time.Now()
		var emits int64
		err := inner(ctx, key, values, func(k, v string) { emits++; emit(k, v) })
		k.hostNS.Add(time.Since(h0).Nanoseconds())
		k.calls.Add(1)
		k.emits.Add(emits)
		return err
	}
}

// wordcountExplainNS prices a wordcount repetition: the metered kernels
// and the shuffle pairs' encode/decode/group at their best case (spread
// over GOMAXPROCS), plus one unit and one compute round trip per task.
func wordcountExplainNS(m map[string]float64, _ int64) float64 {
	procs := float64(runtime.GOMAXPROCS(0))
	tasks := m["mapreduce.map_tasks"] + m["mapreduce.reduce_tasks"]
	return (m["mapreduce.map_kernel_host_s"]+m["mapreduce.reduce_kernel_host_s"])*1e9/procs +
		m["mapreduce.shuffle_kvs"]*(m["mapreduce.encode_ns_per_kv"]+m["mapreduce.decode_ns_per_kv"]+m["mapreduce.group_ns_per_kv"])/procs +
		tasks*(m["core.unit_roundtrip_ns"]+m["vclock.compute_roundtrip_ns"])
}
