package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gopilot/internal/apps/kmeans"
	"gopilot/internal/apps/lightsource"
	"gopilot/internal/apps/rexchange"
	"gopilot/internal/apps/wordcount"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/dataflow"
	"gopilot/internal/dist"
	"gopilot/internal/mapreduce"
	"gopilot/internal/memory"
	"gopilot/internal/metrics"
	"gopilot/internal/streaming"
)

// table1 reproduces Table I: the same Pilot-API expresses all five
// application scenarios (task-parallel, data-parallel, dataflow,
// iterative, streaming). Each scenario runs a real workload end-to-end;
// the table reports tasks executed and modeled makespan — the
// "generality/applicability" evidence of Eval 2.
func table1(seed int64, _ Size) (*metrics.Table, error) {
	tb := NewTestbed(TestbedConfig{QueueWaitMean: 10, Seed: seed})
	defer tb.Close()
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "t1", Resource: "local://localhost", Cores: 16,
	}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	t := metrics.NewTable("Table I — one abstraction, five scenarios",
		"scenario", "workload", "tasks", "makespan", "detail")

	// --- Task-parallel: replica-exchange ensemble --------------------------
	rex, err := rexchange.Run(ctx, mgr, rexchange.Config{
		Replicas: 8, Cycles: 2, MDTime: dist.Constant(20),
		ExchangeTime: 2 * time.Second, Stream: tb.Root.Named("app/rexchange"),
	})
	if err != nil {
		return nil, fmt.Errorf("task-parallel: %w", err)
	}
	t.AddRow("task-parallel", "replica-exchange MD", 8*2,
		metrics.FormatDuration(rex.Elapsed),
		fmt.Sprintf("exchange acceptance %.0f%%", rex.AcceptanceRatio()*100))

	// --- Data-parallel: map-only analytics over data-units -----------------
	for i := 0; i < 8; i++ {
		if err := tb.Data.Put(ctx, data.Unit{
			ID: fmt.Sprintf("t1-chunk-%d", i), Content: []byte("x"),
			LogicalSize: 200e6, Site: "localhost",
		}); err != nil {
			return nil, err
		}
	}
	dpStart := tb.Clock.Now()
	var dpUnits []*core.ComputeUnit
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("t1-chunk-%d", i)
		u, err := mgr.SubmitUnit(core.UnitDescription{
			Name: "maponly-" + id, InputData: []string{id},
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if _, err := tc.Data.Read(ctx, id, tc.Site); err != nil {
					return err
				}
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		dpUnits = append(dpUnits, u)
	}
	for _, u := range dpUnits {
		if s, err := u.Wait(ctx); s != core.UnitDone {
			return nil, fmt.Errorf("data-parallel: %v %w", s, err)
		}
	}
	t.AddRow("data-parallel", "map-only analytics", 8,
		metrics.FormatDuration(tb.Clock.Now().Sub(dpStart)),
		"8×200MB chunks read in place")

	// --- Dataflow: multi-stage MapReduce (wordcount) -----------------------
	corpus := wordcount.GenerateCorpus(4, 400, 100, tb.Root.Named("corpus"))
	var splitIDs []string
	for i, s := range corpus {
		id := fmt.Sprintf("t1-wc-%d", i)
		if err := tb.Data.Put(ctx, data.Unit{ID: id, Content: []byte(s), Site: "localhost"}); err != nil {
			return nil, err
		}
		splitIDs = append(splitIDs, id)
	}
	mrRes, err := mapreduce.Run(ctx, mgr, wordcount.Config("t1-wc", splitIDs, 2))
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	// A second dataflow flavour: an explicit DAG with fan-out/fan-in.
	g := dataflow.New()
	g.MustAdd(dataflow.Stage{Name: "prepare", Parallelism: 1, Run: func(ctx context.Context, tc core.TaskContext, _ int) error {
		tc.Sleep(ctx, time.Second)
		return nil
	}})
	g.MustAdd(dataflow.Stage{Name: "analyze", Deps: []string{"prepare"}, Parallelism: 4, Run: func(ctx context.Context, tc core.TaskContext, _ int) error {
		tc.Sleep(ctx, 2*time.Second)
		return nil
	}})
	g.MustAdd(dataflow.Stage{Name: "merge", Deps: []string{"analyze"}, Parallelism: 1, Run: func(ctx context.Context, tc core.TaskContext, _ int) error {
		tc.Sleep(ctx, time.Second)
		return nil
	}})
	if _, err := g.Run(ctx, mgr); err != nil {
		return nil, fmt.Errorf("dataflow DAG: %w", err)
	}
	t.AddRow("dataflow", "MapReduce wordcount + 3-stage DAG",
		mrRes.MapTasks+mrRes.ReduceTasks+6,
		metrics.FormatDuration(mrRes.Elapsed),
		fmt.Sprintf("map %s / shuffle+reduce %s",
			metrics.FormatDuration(mrRes.MapElapsed), metrics.FormatDuration(mrRes.ReduceElapsed)))

	// --- Iterative: K-Means with Pilot-Memory caching ----------------------
	dataset := kmeans.Generate(2000, 4, 3, 1.0, tb.Root.Named("dataset"))
	kcfg := kmeans.Config{
		K: 4, MaxIter: 4, Tol: 0, Partitions: 4,
		Mode: kmeans.ModeMemory,
		Cache: memory.NewCache(memory.Config{
			CapacityBytes: 1 << 30, Clock: tb.Clock,
		}),
		Site: "localhost", BytesPerPoint: 1 << 12, Stream: tb.Root.Named("app/kmeans"),
	}
	ids, err := kmeans.Stage(ctx, tb.Data, dataset, kcfg)
	if err != nil {
		return nil, err
	}
	kres, err := kmeans.Run(ctx, mgr, dataset, ids, kcfg)
	if err != nil {
		return nil, fmt.Errorf("iterative: %w", err)
	}
	t.AddRow("iterative", "K-Means (Pilot-Memory)", kres.Iters*4,
		metrics.FormatDuration(kres.Elapsed),
		fmt.Sprintf("%d iterations, cache hit rate %.0f%%", kres.Iters, kcfg.Cache.HitRate()*100))

	// --- Streaming: light-source reconstruction ----------------------------
	broker := streaming.NewCluster(streaming.ClusterConfig{
		Shards: 1, Replication: 1,
		AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
	})
	defer broker.Close()
	if err := broker.CreateTopic("frames", 4); err != nil {
		return nil, err
	}
	det := lightsource.NewDetector(24, 24, 0.5, 25, 2, tb.Root.Named("detector"))
	var recovered, frames atomic.Int64
	proc, err := streaming.StartGroup(ctx, mgr, broker, streaming.GroupConfig{
		Name: "t1-ls", Topic: "frames", Workers: 2,
		CostPerMessage: 5 * time.Millisecond,
		Handler: func(ctx context.Context, tc core.TaskContext, m streaming.Message) error {
			f, err := lightsource.Decode(m.Value)
			if err != nil {
				return err
			}
			if r := lightsource.Reconstruct(f, 3); r.Found && r.Error < 3 {
				recovered.Add(1)
			}
			frames.Add(1)
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("streaming: %w", err)
	}
	const nFrames = 60
	for i := 0; i < nFrames; i++ {
		if _, err := broker.Publish(ctx, "frames", nil, lightsource.Encode(det.Next())); err != nil {
			return nil, err
		}
	}
	if err := proc.WaitProcessed(ctx, nFrames); err != nil {
		return nil, fmt.Errorf("streaming drain: %w", err)
	}
	proc.Stop()
	t.AddRow("streaming", "light-source reconstruction", nFrames,
		fmt.Sprintf("%.0f msg/s", proc.Throughput()),
		fmt.Sprintf("peaks recovered %d/%d, p95 latency %.2fs", recovered.Load(), frames.Load(), proc.LatencyStats().P95))

	return t, nil
}
