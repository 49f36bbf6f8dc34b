package experiments

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/apps/lightsource"
	"gopilot/internal/core"
	"gopilot/internal/metrics"
	"gopilot/internal/miniapp"
	"gopilot/internal/perfmodel"
	"gopilot/internal/streaming"
)

// StreamTrial runs one streaming configuration: `partitions` broker
// partitions, matching processor workers, n frames, per-frame handler
// cost, returning throughput (msg/s) and latency stats.
func StreamTrial(tb *Testbed, partitions, workers, frames int, handlerCost time.Duration) (throughput float64, lat metrics.Summary, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	broker := streaming.NewCluster(streaming.ClusterConfig{
		Shards: 1, Replication: 1,
		AppendCost: 2 * time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
	})
	defer broker.Close()
	topic := fmt.Sprintf("frames-p%d-w%d", partitions, workers)
	if err := broker.CreateTopic(topic, partitions); err != nil {
		return 0, lat, err
	}
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "stream", Resource: "local://localhost", Cores: workers + 1, Walltime: 2 * time.Hour,
	}); err != nil {
		return 0, lat, err
	}
	det := lightsource.NewDetector(16, 16, 0.5, 25, 2, tb.Root.Named("detector"))
	proc, err := streaming.StartGroup(ctx, mgr, broker, streaming.GroupConfig{
		Name: "ls", Topic: topic, Workers: workers,
		Stream:         tb.Root.Named("streaming/group/ls"),
		CostPerMessage: handlerCost,
		// Decode + Reconstruct is pure CPU per frame: run each batch as a
		// parallel compute phase so workers overlap on real cores.
		PureHandler: true,
		Handler: func(ctx context.Context, tc core.TaskContext, m streaming.Message) error {
			f, err := lightsource.Decode(m.Value)
			if err != nil {
				return err
			}
			_ = lightsource.Reconstruct(f, 3)
			return nil
		},
	})
	if err != nil {
		return 0, lat, err
	}
	payload := lightsource.Encode(det.Next())
	if _, err := streaming.Produce(ctx, broker, topic, frames, 0, payload); err != nil {
		return 0, lat, err
	}
	if err := proc.WaitProcessed(ctx, int64(frames)); err != nil {
		return 0, lat, fmt.Errorf("drained %d/%d: %w", proc.Processed(), frames, err)
	}
	proc.Stop()
	return proc.Throughput(), proc.LatencyStats(), nil
}

// Streaming reproduces Table II's Pilot-Streaming evaluation (E7):
// throughput and latency of light-source frame reconstruction as broker
// partitions (and matching processing workers) grow. Shape: throughput
// scales with partitions until the producer or handler saturates; latency
// collapses once consumers keep up.
func Streaming(frames int) (*metrics.Table, error) {
	if frames <= 0 {
		frames = 1500
	}
	t := metrics.NewTable(
		fmt.Sprintf("Table II (Eval 3/4) — Pilot-Streaming throughput/latency (%d frames, 10ms handler)", frames),
		"partitions", "workers", "throughput_msg_s", "latency_p50_s", "latency_p95_s")

	for _, parts := range []int{1, 2, 4, 8} {
		tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 8})
		tput, lat, err := StreamTrial(tb, parts, parts, frames, 10*time.Millisecond)
		tb.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(parts, parts,
			fmt.Sprintf("%.0f", tput),
			fmt.Sprintf("%.3f", lat.Median),
			fmt.Sprintf("%.3f", lat.P95))
	}
	return t, nil
}

// ThroughputModel reproduces the statistical performance model of [73]
// (E8): a Mini-App sweep over partition/worker configurations generates
// training data; an OLS model predicts throughput from the configuration;
// a holdout configuration validates it. The table reports the fit and the
// holdout error, mirroring the paper's model-quality reporting.
func ThroughputModel(frames int) (*metrics.Table, []string, error) {
	if frames <= 0 {
		frames = 800
	}
	design := miniapp.Design{Factors: []miniapp.Factor{
		{Name: "partitions", Levels: []float64{1, 2, 3, 4, 6}},
	}}
	runner := miniapp.Runner{
		Name:   "throughput-sweep",
		Design: design,
		Run: func(ctx context.Context, cfg map[string]float64, _ int) (map[string]float64, error) {
			tb := NewTestbed(TestbedConfig{QueueWaitMean: 5, Seed: 9})
			defer tb.Close()
			parts := int(cfg["partitions"])
			tput, lat, err := StreamTrial(tb, parts, parts, frames, 10*time.Millisecond)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"throughput": tput, "latency_p95": lat.P95}, nil
		},
	}
	rs, err := runner.Execute(context.Background())
	if err != nil {
		return nil, nil, err
	}
	x, y := rs.Matrix([]string{"partitions"}, "throughput")
	if len(x) < 4 {
		return nil, nil, fmt.Errorf("sweep produced only %d points", len(x))
	}
	// Hold out the largest configuration, fit on the rest.
	holdX, holdY := x[len(x)-1], y[len(y)-1]
	model, err := perfmodel.FitOLS(x[:len(x)-1], y[:len(y)-1], []string{"partitions"})
	if err != nil {
		return nil, nil, err
	}

	t := metrics.NewTable("Table II (Eval 4) — statistical throughput model [73]",
		"partitions", "measured_msg_s", "predicted_msg_s", "err_%")
	for i := range x {
		pred := model.Predict(x[i])
		t.AddRow(x[i][0],
			fmt.Sprintf("%.0f", y[i]),
			fmt.Sprintf("%.0f", pred),
			fmt.Sprintf("%+.1f", (pred-y[i])/y[i]*100))
	}
	holdErr := (model.Predict(holdX) - holdY) / holdY * 100
	notes := []string{
		fmt.Sprintf("model: %s", model),
		fmt.Sprintf("R² (train) = %.3f", model.R2(x[:len(x)-1], y[:len(y)-1])),
		fmt.Sprintf("holdout (partitions=%g): measured %.0f, predicted %.0f (%+.1f%%)",
			holdX[0], holdY, model.Predict(holdX), holdErr),
	}
	return t, notes, nil
}
