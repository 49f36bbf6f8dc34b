package streaming

import (
	"context"
	"sync"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra/serverless"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func newPlatform(clock vclock.Clock) *serverless.Platform {
	return serverless.New(serverless.Config{
		Name:             "lambda",
		ColdStart:        dist.Constant(1),
		WarmStart:        dist.Constant(0.005),
		WarmTTL:          time.Hour,
		ConcurrencyLimit: 64,
		Clock:            clock,
	})
}

func TestServerlessProcessorConsumesAll(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 4)
	platform := newPlatform(clock)
	defer platform.Shutdown()

	var mu sync.Mutex
	seen := map[int64]bool{}
	proc, err := StartServerless(context.Background(), platform, b, ServerlessConfig{
		Topic: "t", Function: "recon", BatchSize: 16,
		CostPerMessage: time.Millisecond,
		Handler: func(_ context.Context, m Message) error {
			mu.Lock()
			seen[int64(m.Partition)<<32|m.Offset] = true
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if _, err := b.Publish(context.Background(), "t", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
	if proc.Throughput() <= 0 {
		t.Error("throughput not measured")
	}
	// One cold start per partition dispatcher at most a handful.
	if platform.ColdStarts() == 0 {
		t.Error("no cold start recorded despite fresh platform")
	}
	if platform.WarmStarts() == 0 {
		t.Error("no warm reuse despite many batches")
	}
}

func TestServerlessValidation(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	platform := newPlatform(clock)
	defer platform.Shutdown()
	if _, err := StartServerless(context.Background(), platform, b, ServerlessConfig{Topic: "t"}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := StartServerless(context.Background(), platform, b, ServerlessConfig{
		Topic:   "ghost",
		Handler: func(context.Context, Message) error { return nil },
	}); err == nil {
		t.Error("unknown topic accepted")
	}
}

func TestServerlessColdStartShowsInLatency(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := oneBroker(ClusterConfig{AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	// Expensive cold start, no warm expiry within the test.
	platform := serverless.New(serverless.Config{
		ColdStart: dist.Constant(5), WarmStart: dist.Constant(0.005),
		WarmTTL: time.Hour, Clock: clock,
	})
	defer platform.Shutdown()

	proc, err := StartServerless(context.Background(), platform, b, ServerlessConfig{
		Topic: "t", BatchSize: 8,
		Handler: func(context.Context, Message) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// First message pays the cold start; publish more afterwards.
	b.Publish(context.Background(), "t", nil, []byte("first"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		b.Publish(ctx, "t", nil, []byte("more"))
	}
	if err := proc.WaitProcessed(ctx, 41); err != nil {
		t.Fatalf("processed %d/41: %v", proc.Processed(), err)
	}
	proc.Stop()
	lat := proc.LatencyStats()
	// The cold-started first message dominates the max; warm batches are
	// far cheaper than the 5s cold start.
	if lat.Max < 4 {
		t.Errorf("max latency %.2fs does not reflect the 5s cold start", lat.Max)
	}
	if lat.Median > lat.Max/2 {
		t.Errorf("median %.2fs not ≪ max %.2fs (warm path should dominate)", lat.Median, lat.Max)
	}
}

func TestServerlessStopTerminates(t *testing.T) {
	clock := vclocktest.Adopted(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 2)
	platform := newPlatform(clock)
	defer platform.Shutdown()
	proc, err := StartServerless(context.Background(), platform, b, ServerlessConfig{
		Topic:   "t",
		Handler: func(context.Context, Message) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	proc.Stop() // a hang here is the failure (go test -timeout)
}
