package dist

import (
	"math"
	"testing"
)

// draws is sized so that standard-error-based tolerances below are tight
// enough to catch parameterization bugs (e.g. mu/sigma vs mean/cv mixups)
// but loose enough to never flake on a correct implementation.
const draws = 200000

func empiricalMoments(d Dist, n int) (mean, variance float64) {
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := d.Sample()
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

func TestConstantExact(t *testing.T) {
	for _, v := range []float64{-3.5, 0, 1, 42, 1e9} {
		c := Constant(v)
		for i := 0; i < 10; i++ {
			if got := c.Sample(); got != v {
				t.Fatalf("Constant(%g).Sample() = %g", v, got)
			}
		}
	}
}

func TestNormalMoments(t *testing.T) {
	cases := []struct {
		name     string
		mean, sd float64
		seed     int64
	}{
		{"standard", 0, 1, 1},
		{"shifted", 60, 5, 2},
		{"wide", -100, 40, 3},
		{"tight", 1e4, 0.5, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewNormal(tc.mean, tc.sd, tc.seed)
			m, v := empiricalMoments(d, draws)
			// 6 standard errors of the sample mean / variance.
			seMean := 6 * tc.sd / math.Sqrt(draws)
			if math.Abs(m-tc.mean) > seMean {
				t.Errorf("empirical mean = %g, want %g ± %g", m, tc.mean, seMean)
			}
			seVar := 6 * tc.sd * tc.sd * math.Sqrt2 / math.Sqrt(draws)
			if math.Abs(v-tc.sd*tc.sd) > seVar {
				t.Errorf("empirical var = %g, want %g ± %g", v, tc.sd*tc.sd, seVar)
			}
		})
	}
}

func TestLogNormalMoments(t *testing.T) {
	cases := []struct {
		name     string
		mean, cv float64
		seed     int64
	}{
		{"queue-wait", 600, 1.0, 42},
		{"boot-delay", 45, 0.3, 5},
		{"low-variance", 120, 0.1, 6},
		{"heavy-tail", 100, 1.5, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewLogNormal(tc.mean, tc.cv, tc.seed)
			m, v := empiricalMoments(d, draws)
			// Relative tolerances scaled by the tail weight: the sample
			// mean of a cv=1.5 lognormal converges slowly.
			if rel := math.Abs(m-tc.mean) / tc.mean; rel > 0.03*(1+tc.cv) {
				t.Errorf("empirical mean = %g, want %g (rel err %g)", m, tc.mean, rel)
			}
			wantSD := tc.cv * tc.mean
			if rel := math.Abs(math.Sqrt(v)-wantSD) / wantSD; rel > 0.1*(1+tc.cv) {
				t.Errorf("empirical sd = %g, want %g (rel err %g)", math.Sqrt(v), wantSD, rel)
			}
			// Every lognormal draw is strictly positive by construction.
			for i := 0; i < 1000; i++ {
				if x := d.Sample(); x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
					t.Fatalf("draw %d = %g, want finite positive", i, x)
				}
			}
		})
	}
}

func TestLogNormalDegeneratesToConstant(t *testing.T) {
	d := NewLogNormal(50, 0, 9)
	for i := 0; i < 100; i++ {
		if x := d.Sample(); math.Abs(x-50) > 1e-9 {
			t.Fatalf("cv=0 draw = %g, want 50", x)
		}
	}
}

func TestBernoulliHitRate(t *testing.T) {
	for _, p := range []float64{0, 0.05, 0.3, 0.5, 0.9, 1} {
		d := BernoulliFrom(NewStream(11), p)
		hits := 0
		for i := 0; i < draws; i++ {
			switch d.Sample() {
			case 1:
				hits++
			case 0:
			default:
				t.Fatalf("Bernoulli draw outside {0,1}")
			}
		}
		rate := float64(hits) / draws
		tol := 6*math.Sqrt(p*(1-p)/draws) + 1e-12
		if math.Abs(rate-p) > tol {
			t.Errorf("p=%g: hit rate %g, want ± %g", p, rate, tol)
		}
	}
}

func TestBernoulliHelper(t *testing.T) {
	s := NewStream(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if tol := 6 * math.Sqrt(0.3*0.7/draws); math.Abs(rate-0.3) > tol {
		t.Errorf("hit rate %g, want 0.3 ± %g", rate, tol)
	}
}
