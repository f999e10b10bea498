package obs

import (
	"math"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	if !math.IsNaN(h.m.quantile(0.5)) {
		t.Fatalf("empty histogram quantile = %g, want NaN", h.m.quantile(0.5))
	}
}

func TestQuantileSingleValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	h.Observe(7)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.m.quantile(q); got != 7 {
			t.Fatalf("Quantile(%g) = %g, want 7 (single observation)", q, got)
		}
	}
}

func TestQuantileUniform(t *testing.T) {
	// 100 observations 1..100 against decade buckets: the interpolated
	// quantiles should land near the true ones.
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 25, 50, 75, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want, tol float64 }{
		{0.50, 50, 2},
		{0.95, 95, 2},
		{0.99, 99, 2},
	}
	for _, c := range cases {
		got := h.m.quantile(c.q)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%g) = %g, want %g +/- %g", c.q, got, c.want, c.tol)
		}
	}
}

func TestQuantileInfBucketClampedToMax(t *testing.T) {
	// Observations beyond the last finite bound land in the +Inf bucket;
	// tail quantiles must stay within the observed range, not run away.
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1000)
	h.Observe(2000)
	h.Observe(3000)
	if got := h.m.quantile(0.99); got < 1000 || got > 3000 {
		t.Fatalf("Quantile(0.99) = %g, want within observed [1000,3000]", got)
	}
	if got := h.m.quantile(1); got != 3000 {
		t.Fatalf("Quantile(1) = %g, want observed max 3000", got)
	}
	if got := h.m.quantile(0); got != 1000 {
		t.Fatalf("Quantile(0) = %g, want observed min 1000", got)
	}
}
