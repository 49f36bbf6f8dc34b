// Streaming light-source reconstruction on Pilot-Streaming [32]: detector
// frames flow through a partitioned-log broker to pilot-managed
// reconstruction workers; a tumbling window aggregates peak statistics —
// Table I's "Streaming" scenario.
//
//	go run ./examples/streaming_lightsource
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"gopilot/internal/apps/lightsource"
	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/metrics"
	"gopilot/internal/streaming"
)

func main() {
	tb := experiments.NewTestbed(experiments.TestbedConfig{QueueWaitMean: 10, Seed: 5})
	defer tb.Close()
	mgr := tb.NewManager(nil)

	broker := streaming.NewCluster(streaming.ClusterConfig{
		Shards: 1, Replication: 1,
		AppendCost: 2 * time.Millisecond, FetchLatency: time.Millisecond, Clock: tb.Clock,
	})
	defer broker.Close()
	const partitions = 4
	if err := broker.CreateTopic("detector", partitions); err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "stream-pilot", Resource: "local://localhost", Cores: partitions + 1, Walltime: 6 * time.Hour,
	}); err != nil {
		log.Fatal(err)
	}

	// Windowed aggregation of reconstruction quality (10 modeled seconds).
	// A Window flushes in ascending start order, so the slice is the table.
	var mu sync.Mutex
	type windowStat struct {
		start  time.Time
		frames int
		errSum float64
	}
	var windows []windowStat
	win := streaming.NewWindow(10*time.Second, func(start time.Time, msgs []streaming.Message) {
		st := windowStat{start: start}
		for _, m := range msgs {
			f, err := lightsource.Decode(m.Value)
			if err != nil {
				continue
			}
			if r := lightsource.Reconstruct(f, 3); r.Found {
				st.frames++
				st.errSum += r.Error
			}
		}
		mu.Lock()
		windows = append(windows, st)
		mu.Unlock()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	proc, err := streaming.StartGroup(ctx, mgr, broker, streaming.GroupConfig{
		Name: "reconstruct", Topic: "detector", Workers: partitions,
		CostPerMessage: 8 * time.Millisecond, // modeled reconstruction cost
		Handler: func(ctx context.Context, tc core.TaskContext, m streaming.Message) error {
			win.Add(m)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Stream 600 frames as fast as the broker admits them: 2 ms of append
	// cost each, ≈ 500 frames per modeled second.
	det := lightsource.NewDetector(24, 24, 0.5, 25, 2, tb.Root.Named("detector"))
	const frames = 600
	for i := 0; i < frames; i++ {
		if _, err := broker.Publish(ctx, "detector", nil, lightsource.Encode(det.Next())); err != nil {
			log.Fatal(err)
		}
	}
	if err := proc.WaitProcessed(ctx, frames); err != nil {
		log.Fatalf("drained %d/%d: %v", proc.Processed(), frames, err)
	}
	proc.Stop()
	win.Flush()

	lat := proc.LatencyStats()
	fmt.Printf("processed %d frames on %d partitions/%d workers\n", proc.Processed(), partitions, partitions)
	fmt.Printf("throughput: %.0f frames per modeled second\n", proc.Throughput())
	fmt.Printf("end-to-end latency: p50 %.0fms  p95 %.0fms (modeled)\n", lat.Median*1000, lat.P95*1000)

	t := metrics.NewTable("window aggregates (10s tumbling)", "window_start", "peaks", "mean_err_px")
	mu.Lock()
	for _, st := range windows {
		if st.frames == 0 {
			continue
		}
		t.AddRow(st.start.Format("15:04:05"), st.frames, fmt.Sprintf("%.2f", st.errSum/float64(st.frames)))
	}
	mu.Unlock()
	fmt.Print(t)
}
