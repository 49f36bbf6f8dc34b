package kmeans

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gopilot/internal/dist"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/memory"
	"gopilot/internal/metrics"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
	"gopilot/internal/vclock/vclocktest"
)

func TestGenerateShape(t *testing.T) {
	ds := Generate(100, 4, 3, 1.0, dist.NewStream(42))
	if len(ds.Points) != 100 || len(ds.Centers) != 4 || ds.Dim != 3 {
		t.Fatalf("dataset shape wrong: %d points %d centers dim %d", len(ds.Points), len(ds.Centers), ds.Dim)
	}
	for _, p := range ds.Points {
		if len(p) != 3 {
			t.Fatal("point dim wrong")
		}
	}
}

func TestGenerateReproducible(t *testing.T) {
	a := Generate(50, 3, 2, 1, dist.NewStream(7))
	b := Generate(50, 3, 2, 1, dist.NewStream(7))
	for i := range a.Points {
		for d := range a.Points[i] {
			if a.Points[i][d] != b.Points[i][d] {
				t.Fatal("same seed, different data")
			}
		}
	}
}

func TestPartitionCoversAll(t *testing.T) {
	ds := Generate(103, 2, 2, 1, dist.NewStream(1))
	parts := ds.Partition(7)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 103 {
		t.Fatalf("partitions cover %d points, want 103", total)
	}
}

func TestSequentialConverges(t *testing.T) {
	// Well-separated clusters: k-means should find centers near truth.
	ds := Generate(600, 3, 2, 0.5, dist.NewStream(11))
	// Seed 4 samples one initial centroid per true cluster; plain Lloyd's
	// (no k-means++) stays in a collapsed local optimum for inits that
	// start two centroids in one cluster, so the seed matters.
	centroids, inertia, iters := Sequential(ds.Points, 3, 50, 1e-6, dist.NewStream(4))
	if iters <= 0 || iters > 50 {
		t.Fatalf("iters = %d", iters)
	}
	if inertia <= 0 {
		t.Fatalf("inertia = %g", inertia)
	}
	// Every true center has a centroid within a few spreads.
	for _, c := range ds.Centers {
		best := math.MaxFloat64
		for _, k := range centroids {
			if d := dist2(c, k); d < best {
				best = d
			}
		}
		if math.Sqrt(best) > 3 {
			t.Errorf("no centroid near true center %v (closest %.2f away)", c, math.Sqrt(best))
		}
	}
}

// Property: Reduce with a single partition equals the mean of assigned
// points, and total counts equal the point count.
func TestAssignReduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds := Generate(80, 3, 2, 2, dist.NewStream(seed))
		cents := initCentroids(ds.Points, 3, dist.NewStream(seed+1))
		sums, counts, _ := Assign(ds.Points, cents)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(ds.Points) {
			return false
		}
		next := Reduce(cents, [][]Point{sums}, [][]int{counts})
		for c := range next {
			if counts[c] == 0 {
				continue
			}
			for d := range next[c] {
				want := sums[c][d] / float64(counts[c])
				if math.Abs(next[c][d]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ds := Generate(17, 2, 5, 1, dist.NewStream(3))
	got, err := decodePoints(encodePoints(ds.Points))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.Points) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		for d := range got[i] {
			if got[i][d] != ds.Points[i][d] {
				t.Fatal("roundtrip mismatch")
			}
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, err := decodePoints([]byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	buf := encodePoints(Generate(5, 1, 2, 1, dist.NewStream(1)).Points)
	if _, err := decodePoints(buf[:len(buf)-4]); err == nil {
		t.Error("truncated body accepted")
	}
}

type testEnv struct {
	clock *vclock.Virtual
	mgr   *core.Manager
	ds    *data.Service
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	clock := vclocktest.Adopted(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("siteA", 16, clock))
	ds := data.NewService(data.Config{Clock: clock, LocalBandwidth: 200e6})
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Data: ds})
	t.Cleanup(mgr.Close)
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://siteA", Cores: 8})
	return &testEnv{clock: clock, mgr: mgr, ds: ds}
}

func TestDistributedMatchesSequential(t *testing.T) {
	env := newEnv(t)
	dataset := Generate(400, 3, 2, 0.5, dist.NewStream(21))
	cfg := Config{K: 3, MaxIter: 8, Tol: 1e-9, Partitions: 4, Mode: ModeData, Stream: dist.NewStream(5)}
	ids, err := Stage(context.Background(), env.ds, dataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), env.mgr, dataset, ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential with identical init (same seed) and same iteration count.
	seqCents, seqInertia, _ := Sequential(dataset.Points, 3, res.Iters, 0, dist.NewStream(5))
	if math.Abs(res.Inertia-seqInertia)/seqInertia > 1e-6 {
		t.Fatalf("inertia %g != sequential %g", res.Inertia, seqInertia)
	}
	for i := range seqCents {
		for d := range seqCents[i] {
			if math.Abs(res.Centroids[i][d]-seqCents[i][d]) > 1e-9 {
				t.Fatalf("centroid %d dim %d: %g != %g", i, d, res.Centroids[i][d], seqCents[i][d])
			}
		}
	}
}

func TestMemoryModeFasterPerIteration(t *testing.T) {
	// Multi-gigabyte modeled partitions: 10s-class disk reads per iteration.
	env := newEnv(t)
	dataset := Generate(400, 3, 2, 0.5, dist.NewStream(33))
	base := Config{K: 3, MaxIter: 5, Tol: 0, Partitions: 4, BytesPerPoint: 1 << 24, Stream: dist.NewStream(9)}

	diskCfg := base
	diskCfg.Mode = ModeData
	ids, err := Stage(context.Background(), env.ds, dataset, diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Run(context.Background(), env.mgr, dataset, ids, diskCfg)
	if err != nil {
		t.Fatal(err)
	}

	memCfg := base
	memCfg.Mode = ModeMemory
	memCfg.Cache = memory.NewCache(memory.Config{CapacityBytes: 1 << 36, Bandwidth: 10e9, Clock: env.clock})
	mem, err := Run(context.Background(), env.mgr, dataset, ids, memCfg)
	if err != nil {
		t.Fatal(err)
	}

	// After iteration 1 the cache is warm: the mean of the later
	// iterations must beat disk mode's clearly.
	diskLater := metrics.Mean(metrics.Durations(disk.IterTimes[1:]))
	memLater := metrics.Mean(metrics.Durations(mem.IterTimes[1:]))
	if memLater >= diskLater {
		t.Fatalf("warm memory iterations %.2fs not faster than disk iterations %.2fs", memLater, diskLater)
	}
	if memCfg.Cache.HitRate() == 0 {
		t.Error("cache never hit")
	}
	// Same math either way.
	if math.Abs(disk.Inertia-mem.Inertia)/disk.Inertia > 1e-6 {
		t.Errorf("inertia differs: disk %g mem %g", disk.Inertia, mem.Inertia)
	}
}

func TestRunValidation(t *testing.T) {
	env := newEnv(t)
	dataset := Generate(10, 2, 2, 1, dist.NewStream(1))
	if _, err := Run(context.Background(), env.mgr, dataset, []string{"x"}, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(context.Background(), env.mgr, dataset, []string{"x"}, Config{K: 2, Mode: ModeMemory}); err == nil {
		t.Error("ModeMemory without cache accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeData.String() != "pilot-data" || ModeMemory.String() != "pilot-memory" {
		t.Fatal("mode strings wrong")
	}
}

func TestIterTimesRecorded(t *testing.T) {
	env := newEnv(t)
	dataset := Generate(100, 2, 2, 0.5, dist.NewStream(3))
	cfg := Config{K: 2, MaxIter: 3, Tol: 0, Partitions: 2, Mode: ModeData, Stream: dist.NewStream(4)}
	ids, _ := Stage(context.Background(), env.ds, dataset, cfg)
	res, err := Run(context.Background(), env.mgr, dataset, ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != res.Iters {
		t.Fatalf("iter times = %d, iters = %d", len(res.IterTimes), res.Iters)
	}
	var sum time.Duration
	for _, it := range res.IterTimes {
		sum += it
	}
	if sum > res.Elapsed {
		t.Errorf("iteration times %v exceed elapsed %v", sum, res.Elapsed)
	}
}
