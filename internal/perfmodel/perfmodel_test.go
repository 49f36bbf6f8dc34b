package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gopilot/internal/dist"
)

func TestPilotMakespanWaves(t *testing.T) {
	// 10 tasks of 60s on 4 cores: 3 waves → 180s + startup + overhead.
	got := PilotMakespan(10, 4, time.Minute, 30*time.Second, time.Second)
	want := 30*time.Second + 3*time.Minute + 10*time.Second
	if got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
	if PilotMakespan(0, 4, time.Minute, 0, 0) != 0 {
		t.Error("zero tasks should cost nothing")
	}
}

// Property: makespan is non-increasing in cores and non-decreasing in n.
func TestPilotMakespanMonotonicity(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%64) + 1
		c := int(c8%16) + 1
		t1 := PilotMakespan(n, c, time.Minute, 0, time.Second)
		t2 := PilotMakespan(n, c+1, time.Minute, 0, time.Second)
		t3 := PilotMakespan(n+1, c, time.Minute, 0, time.Second)
		return t2 <= t1 && t3 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRexModel(t *testing.T) {
	m := RexModel{
		Replicas: 16, CoresPerReplica: 4, PilotCores: 32,
		MD: 10 * time.Minute, Exchange: time.Minute, Startup: 5 * time.Minute,
	}
	if c := m.Concurrency(); c != 8 {
		t.Fatalf("concurrency = %d, want 8", c)
	}
	// 16 replicas / 8 concurrent = 2 waves ×10m + 1m exchange = 21m.
	if ct := m.CycleTime(); ct != 21*time.Minute {
		t.Fatalf("cycle = %v, want 21m", ct)
	}
	if tt := m.Total(10); tt != 5*time.Minute+210*time.Minute {
		t.Fatalf("total = %v", tt)
	}
	eff := m.Efficiency(10)
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency = %g", eff)
	}
	// More pilot cores (full concurrency) → higher efficiency per time,
	// but bounded by exchange overhead.
	m2 := m
	m2.PilotCores = 64
	if m2.CycleTime() >= m.CycleTime() {
		t.Error("more cores should shorten the cycle")
	}
}

func TestRexModelDegenerate(t *testing.T) {
	m := RexModel{Replicas: 4, CoresPerReplica: 8, PilotCores: 4, MD: time.Minute}
	if m.Concurrency() != 0 || m.CycleTime() != 0 {
		t.Fatal("undersized pilot should yield zero concurrency")
	}
}

func TestDirectSubmissionSimQueueDominates(t *testing.T) {
	// 64 jobs, generous slots, 60s tasks, exogenous waits ≈ 600s: makespan
	// is dominated by the *maximum* queue wait, not the task time.
	qw := dist.NewLogNormal(600, 1.0, 42)
	got := DirectSubmissionSim(64, 64, time.Minute, qw)
	if got < 10*time.Minute {
		t.Fatalf("makespan = %v, want ≥ 10m (max of 64 lognormal waits)", got)
	}
}

func TestDirectVsPilotShape(t *testing.T) {
	// The paper's late-binding claim: for many short tasks under heavy
	// queues, one pilot (one queue wait) beats per-task submission.
	task := time.Minute
	mkQ := func(seed int64) dist.Dist { return dist.NewLogNormal(900, 0.8, seed) }
	direct := DirectSubmissionSim(256, 32, task, mkQ(1))
	pilot := PilotSubmissionSim(256, 32, task, mkQ(2), 100*time.Millisecond)
	if pilot >= direct {
		t.Fatalf("pilot %v not faster than direct %v for 256 tasks", pilot, direct)
	}
}

func TestDirectSubmissionSimEdges(t *testing.T) {
	if DirectSubmissionSim(0, 4, time.Minute, dist.Constant(0)) != 0 {
		t.Error("zero jobs should cost nothing")
	}
	// slots <= 0 means unbounded.
	got := DirectSubmissionSim(8, 0, time.Minute, dist.Constant(0))
	if got != time.Minute {
		t.Errorf("unbounded slots makespan = %v, want 1m", got)
	}
	// Capacity-limited: 8 jobs, 2 slots, no queue wait → 4 waves.
	got = DirectSubmissionSim(8, 2, time.Minute, dist.Constant(0))
	if got != 4*time.Minute {
		t.Errorf("capacity-limited makespan = %v, want 4m", got)
	}
}

// directSubmissionEvents is the naive reference for DirectSubmissionSim:
// the event program spelled out — one arrival event per job at its
// eligibility draw, one finish event per started job, the earliest event
// first and ties in scheduling order — over a plain unsorted event list.
func directSubmissionEvents(n, slots int, t time.Duration, qwait dist.Dist) time.Duration {
	if n <= 0 {
		return 0
	}
	if slots <= 0 {
		slots = n
	}
	type event struct {
		at     time.Duration
		finish bool
	}
	var events []event // scheduling order; ties resolve to the lowest index
	for i := 0; i < n; i++ {
		events = append(events, event{at: time.Duration(qwait.Sample() * float64(time.Second))})
	}
	free, waiting := slots, 0
	var makespan time.Duration
	for len(events) > 0 {
		next := 0
		for i, e := range events {
			if e.at < events[next].at {
				next = i
			}
		}
		e := events[next]
		events = append(events[:next], events[next+1:]...)
		if e.finish {
			free++
			makespan = max(makespan, e.at)
		} else {
			waiting++
		}
		for free > 0 && waiting > 0 {
			free--
			waiting--
			events = append(events, event{at: e.at + t, finish: true})
		}
	}
	return makespan
}

// TestDirectSubmissionSimMatchesEventList is the property behind the
// closed form: over seeded (n, slots, t) cases — zero service time,
// unbounded slots and tied eligibility draws included — the loop and the
// event program agree to the nanosecond.
func TestDirectSubmissionSimMatchesEventList(t *testing.T) {
	draw := dist.NewStream(20200518)
	services := []time.Duration{0, time.Second, 7 * time.Second, time.Minute, 11 * time.Minute}
	for i := 0; i < 600; i++ {
		n := draw.Intn(48)
		slots := draw.Intn(n + 3)
		service := services[draw.Intn(len(services))]
		seed := draw.Int63()
		mk := func() dist.Dist {
			if i%5 == 0 { // whole-second waits: many exact ties
				return quantized{dist.NewLogNormal(20, 1.0, seed)}
			}
			return dist.NewLogNormal(600, 1.0, seed)
		}
		got, want := DirectSubmissionSim(n, slots, service, mk()), directSubmissionEvents(n, slots, service, mk())
		if got != want {
			t.Fatalf("case %d (n=%d slots=%d t=%v seed=%d): closed form %v, event list %v",
				i, n, slots, service, seed, got, want)
		}
	}
}

// quantized rounds a distribution's draws down to whole numbers.
type quantized struct{ dist.Dist }

func (q quantized) Sample() float64 { return math.Floor(q.Dist.Sample()) }

func TestMaxOfNQuantileGrowsWithN(t *testing.T) {
	d1 := dist.NewLogNormal(100, 1.0, 7)
	d2 := dist.NewLogNormal(100, 1.0, 7)
	q1 := MaxOfNQuantile(d1, 1, 0.5, 300)
	q64 := MaxOfNQuantile(d2, 64, 0.5, 300)
	if q64 <= q1 {
		t.Fatalf("max-of-64 median %g not > max-of-1 median %g", q64, q1)
	}
}

func TestFitOLSRecoversPlantedModel(t *testing.T) {
	// y = 3 + 2a - 0.5b, exact (no noise).
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, 3+2*a-0.5*b)
		}
	}
	r, err := FitOLS(x, y, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i, w := range want {
		if math.Abs(r.Coef[i]-w) > 1e-8 {
			t.Errorf("coef[%d] = %g, want %g", i, r.Coef[i], w)
		}
	}
	if r2 := r.R2(x, y); math.Abs(r2-1) > 1e-9 {
		t.Errorf("R2 = %g, want 1", r2)
	}
	if got := r.Predict([]float64{10, 2}); math.Abs(got-22) > 1e-8 {
		t.Errorf("Predict = %g, want 22", got)
	}
}

func TestFitOLSWithNoise(t *testing.T) {
	rng := dist.NewNormal(0, 0.1, 99)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := float64(i % 20)
		x = append(x, []float64{a})
		y = append(y, 5+3*a+(rng.Sample()-0.1))
	}
	r, err := FitOLS(x, y, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coef[1]-3) > 0.05 {
		t.Errorf("slope = %g, want ≈3", r.Coef[1])
	}
	if r2 := r.R2(x, y); r2 < 0.99 {
		t.Errorf("R2 = %g, want ≈1", r2)
	}
}

func TestFitOLSSingular(t *testing.T) {
	// Perfectly collinear features.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := FitOLS(x, y, nil); err == nil {
		t.Fatal("collinear features accepted")
	}
}

func TestFitOLSValidation(t *testing.T) {
	if _, err := FitOLS(nil, nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitOLS([][]float64{{1, 2}, {3}}, []float64{1, 2}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FitOLS([][]float64{{1, 2}}, []float64{1}, nil); err == nil {
		t.Error("underdetermined system accepted")
	}
}

func TestRegressionString(t *testing.T) {
	r := &Regression{Names: []string{"p"}, Coef: []float64{1.5, -2}}
	if got := r.String(); got != "y = 1.5 + -2·p" {
		t.Fatalf("String = %q", got)
	}
}

func TestCrossoverTasks(t *testing.T) {
	// Heavy queue waits: pilot should win from small n (crossover early).
	mkQ := func() dist.Dist { return dist.NewLogNormal(600, 0.5, 11) }
	cross := CrossoverTasks(16, 16, time.Minute, mkQ, time.Second, 1024)
	if cross < 0 {
		t.Fatal("pilot never won despite heavy queue waits")
	}
}
