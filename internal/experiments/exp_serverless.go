package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/apps/lightsource"
	"gopilot/internal/dist"
	"gopilot/internal/infra/serverless"
	"gopilot/internal/metrics"
	"gopilot/internal/streaming"
)

// ServerlessStreaming reproduces the serverless-vs-cluster streaming
// comparison of [73] (E7b): the same light-source stream processed by
// pilot-managed cluster workers and by FaaS invocations. Shapes: the
// cluster path has flat, low latency once warm; the serverless path pays
// cold starts (visible in max latency) but matches steady-state
// throughput, trading standing resources for per-invocation elasticity.
func ServerlessStreaming(frames int) (*metrics.Table, error) {
	if frames <= 0 {
		frames = 1000
	}
	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3/4) — cluster vs serverless stream processing (%d frames, 10ms/msg)", frames),
		"mode", "partitions", "throughput_msg_s", "latency_p50_s", "latency_max_s", "cold_starts")

	for _, parts := range []int{1, 4} {
		// ---------------- cluster (pilot workers) --------------------------
		tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 19})
		tput, lat, err := StreamTrial(tb, parts, parts, frames, 10*time.Millisecond)
		tb.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("cluster (pilot)", parts,
			fmt.Sprintf("%.0f", tput),
			fmt.Sprintf("%.3f", lat.Median),
			fmt.Sprintf("%.3f", lat.Max),
			"-")

		// ---------------- serverless (FaaS invocations) --------------------
		tb2 := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 20})
		sTput, sLat, cold, err := serverlessTrial(tb2, parts, frames, 10*time.Millisecond)
		tb2.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("serverless (FaaS)", parts,
			fmt.Sprintf("%.0f", sTput),
			fmt.Sprintf("%.3f", sLat.Median),
			fmt.Sprintf("%.3f", sLat.Max),
			cold)
	}
	return t, nil
}

func serverlessTrial(tb *Testbed, partitions, frames int, cost time.Duration) (float64, metrics.Summary, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	broker := streaming.NewCluster(streaming.ClusterConfig{
		Shards: 1, Replication: 1,
		AppendCost: 2 * time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
	})
	defer broker.Close()
	topic := fmt.Sprintf("faas-frames-%d", partitions)
	if err := broker.CreateTopic(topic, partitions); err != nil {
		return 0, metrics.Summary{}, 0, err
	}
	faasStream := tb.Root.Named("infra/serverless/lambda")
	platform := serverless.New(serverless.Config{
		Name:      "lambda",
		ColdStart: dist.LogNormalFrom(faasStream.Named("cold-start"), 2, 0.3), // ~2s cold starts
		WarmStart: dist.Constant(0.01),
		WarmTTL:   10 * time.Minute,
		Clock:     tb.Clock,
		Stream:    faasStream,
	})
	defer platform.Shutdown()

	det := lightsource.NewDetector(16, 16, 0.5, 25, 2, tb.Root.Named("detector"))
	proc, err := streaming.StartServerless(ctx, platform, broker, streaming.ServerlessConfig{
		Topic: topic, Function: "reconstruct", BatchSize: 64,
		CostPerMessage: cost,
		Stream:         tb.Root.Named("streaming/serverless/reconstruct"),
		// Decode + Reconstruct is pure CPU per frame: run each invocation's
		// batch as a parallel compute phase.
		PureHandler: true,
		Handler: func(_ context.Context, m streaming.Message) error {
			f, err := lightsource.Decode(m.Value)
			if err != nil {
				return err
			}
			_ = lightsource.Reconstruct(f, 3)
			return nil
		},
	})
	if err != nil {
		return 0, metrics.Summary{}, 0, err
	}
	payload := lightsource.Encode(det.Next())
	if _, err := streaming.Produce(ctx, broker, topic, frames, 0, payload); err != nil {
		return 0, metrics.Summary{}, 0, err
	}
	if err := proc.WaitProcessed(ctx, int64(frames)); err != nil {
		return 0, metrics.Summary{}, 0, fmt.Errorf("drained %d/%d: %w", proc.Processed(), frames, err)
	}
	proc.Stop()
	return proc.Throughput(), proc.LatencyStats(), platform.ColdStarts(), nil
}
