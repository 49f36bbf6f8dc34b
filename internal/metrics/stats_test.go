package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d, want 5", s.N)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %g, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", s.Min, s.Max)
	}
	if s.Median != 3 {
		t.Errorf("Median = %g, want 3", s.Median)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %g, want %g", s.Std, math.Sqrt(2.5))
	}
	if s.Sum != 15 {
		t.Errorf("Sum = %g, want 15", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %g, want 5", got)
	}
	if got := Quantile(xs, 0); got != 0 {
		t.Errorf("Quantile(0) = %g, want 0", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Errorf("Quantile(1) = %g, want 10", got)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sample")
		}
	}()
	Quantile(nil, 0.5)
}

func TestSpeedupAndEfficiency(t *testing.T) {
	t1 := 100 * time.Second
	t4 := 25 * time.Second
	if got := Speedup(t1, t4); got != 4 {
		t.Errorf("Speedup = %g, want 4", got)
	}
	if got := Speedup(t1, 0); got != 0 {
		t.Errorf("Speedup with zero tN = %g, want 0", got)
	}
}

func TestDurations(t *testing.T) {
	ds := []time.Duration{time.Second, 500 * time.Millisecond}
	xs := Durations(ds)
	if xs[0] != 1 || xs[1] != 0.5 {
		t.Fatalf("Durations = %v", xs)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Second, "1.5m"},
		{2 * time.Second, "2.00s"},
		{250 * time.Millisecond, "250.0ms"},
		{42 * time.Microsecond, "42µs"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := NewTable("Demo", "config", "runtime_s", "speedup")
	tb.AddRow("base", 10.0, 1.0)
	tb.AddRow("fast, tuned", 2.5, 4.0)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "2.5") || !strings.Contains(out, "fast, tuned") {
		t.Errorf("missing cells:\n%s", out)
	}
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	if !strings.Contains(csv, "\"fast, tuned\"") {
		t.Errorf("CSV did not quote comma cell:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "config,runtime_s,speedup\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
}

func TestTableNotesRenderAfterRowsNotInCSV(t *testing.T) {
	tb := NewTable("Demo", "config", "speedup")
	tb.AddRow("base", 1.0)
	tb.Notes = []string{"model: y = 2x", "R² = 0.99"}
	want := "== Demo ==\n" +
		"config  speedup\n" +
		"------  -------\n" +
		"base    1\n" +
		"  model: y = 2x\n" +
		"  R² = 0.99\n"
	if got := tb.String(); got != want {
		t.Errorf("Render with notes:\n%s\nwant:\n%s", got, want)
	}
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "config,speedup\nbase,1\n" {
		t.Errorf("CSV carries more than header and rows:\n%s", got)
	}
}

func TestMeanStdEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if s := Summarize([]float64{5}).Std; s != 0 {
		t.Errorf("Std of singleton = %g, want 0", s)
	}
}
