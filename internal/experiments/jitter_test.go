package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/infra/serverless"
	"gopilot/internal/metrics"
	"gopilot/internal/streaming"
)

// runJitterTrial drives a small stream through pilot workers with the
// given per-batch cost CV and returns the end-to-end latency summary.
func runJitterTrial(t *testing.T, costCV float64) metrics.Summary {
	t.Helper()
	tb := NewTestbed(TestbedConfig{Seed: 11})
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	broker := streaming.NewCluster(streaming.ClusterConfig{
		Shards: 1, Replication: 1,
		AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
	})
	defer broker.Close()
	if err := broker.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "p", Resource: "local://localhost", Cores: 4, Walltime: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	proc, err := streaming.StartGroup(ctx, mgr, broker, streaming.GroupConfig{
		Name: "jit", Topic: "t", Workers: 2, BatchSize: 8,
		CostPerMessage: 10 * time.Millisecond,
		CostCV:         costCV,
		Stream:         tb.Root.Named("streaming/group/jit"),
		Handler: func(_ context.Context, _ core.TaskContext, _ streaming.Message) error {
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	if _, err := streaming.Produce(ctx, broker, "t", n, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	return proc.LatencyStats()
}

// TestProcessorCostJitterDeterministicAndEffective covers the CostCV
// path: on the virtual clock, same-seed jittered runs are bit-identical
// (per-worker labeled streams), and jitter actually perturbs modeled
// latencies relative to the deterministic-cost run.
func TestProcessorCostJitterDeterministicAndEffective(t *testing.T) {
	jittered := runJitterTrial(t, 0.8)
	again := runJitterTrial(t, 0.8)
	if !reflect.DeepEqual(jittered, again) {
		t.Fatalf("same-seed jittered runs diverge:\n %+v\n %+v", jittered, again)
	}
	flat := runJitterTrial(t, 0)
	if reflect.DeepEqual(jittered, flat) {
		t.Fatal("CostCV=0.8 produced the same latencies as CostCV=0 — jitter path never sampled")
	}
}

// TestServerlessCostJitterDeterministic covers the serverless
// processor's per-partition jitter branch the same way.
func TestServerlessCostJitterDeterministic(t *testing.T) {
	run := func() metrics.Summary {
		tb := NewTestbed(TestbedConfig{Seed: 13})
		defer tb.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		broker := streaming.NewCluster(streaming.ClusterConfig{
			Shards: 1, Replication: 1,
			AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
		})
		defer broker.Close()
		if err := broker.CreateTopic("f", 2); err != nil {
			t.Fatal(err)
		}
		platform := serverless.New(serverless.Config{
			Name: "faas", Clock: tb.Clock, Stream: tb.Root.Named("infra/serverless/faas"),
		})
		defer platform.Shutdown()
		proc, err := streaming.StartServerless(ctx, platform, broker, streaming.ServerlessConfig{
			Topic: "f", Function: "fn", BatchSize: 8,
			CostPerMessage: 5 * time.Millisecond,
			CostCV:         0.5,
			Stream:         tb.Root.Named("streaming/serverless/fn"),
			Handler:        func(_ context.Context, _ streaming.Message) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 32
		if _, err := streaming.Produce(ctx, broker, "f", n, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := proc.WaitProcessed(ctx, n); err != nil {
			t.Fatalf("processed %d/%d: %v", proc.Processed(), n, err)
		}
		proc.Stop()
		return proc.LatencyStats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed serverless jittered runs diverge:\n %+v\n %+v", a, b)
	}
}
