package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %v, want ~1", fit.R2)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 0.5*x+10+rng.NormFloat64()*2)
	}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.5) > 0.05 {
		t.Errorf("slope = %v, want ~0.5", fit.Slope)
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9", fit.R2)
	}
}

func TestLinearDegenerate(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should be degenerate")
	}
	if _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance should be degenerate")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestPowerLawExact(t *testing.T) {
	// y = 3 x^2
	var xs, ys []float64
	for x := 1.0; x <= 10; x++ {
		xs = append(xs, x)
		ys = append(ys, 3*x*x)
	}
	fit, err := PowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-2) > 1e-9 || math.Abs(fit.C-3) > 1e-9 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4, 8}
	ys := []float64{5, 5, 1, 2, 4, 8} // y = x over the positive points
	fit, err := PowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-1) > 1e-9 {
		t.Errorf("Exponent = %v, want 1", fit.Exponent)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for v := 0.0; v < 100; v++ {
		h.Add(v)
	}
	for i, b := range h.Buckets {
		if b != 10 {
			t.Errorf("bucket %d = %d, want 10", i, b)
		}
	}
	h.Add(-5)  // clamps low
	h.Add(500) // clamps high
	if h.Buckets[0] != 11 || h.Buckets[9] != 11 {
		t.Errorf("clamping failed: %v", h.Buckets)
	}
}

// ConcentrationTopFraction returns the fraction of total mass held by the
// largest `frac` fraction of values. The paper characterizes AIS as "85% of
// the data in 5% of the chunks": ConcentrationTopFraction(sizes, 0.05) ≈ 0.85.
func ConcentrationTopFraction(sizes []float64, frac float64) float64 {
	if len(sizes) == 0 {
		return 0
	}
	sorted := append([]float64(nil), sizes...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(math.Ceil(frac * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	var top, total float64
	for i, v := range sorted {
		total += v
		if i < k {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

func TestConcentrationTopFraction(t *testing.T) {
	// 100 values: one of 901, ninety-nine of 1 -> top 1% holds 901/1000.
	sizes := make([]float64, 100)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[42] = 901
	got := ConcentrationTopFraction(sizes, 0.01)
	if math.Abs(got-0.901) > 1e-9 {
		t.Errorf("concentration = %v, want 0.901", got)
	}
	if ConcentrationTopFraction(nil, 0.1) != 0 {
		t.Error("empty input should return 0")
	}
}

func TestZipfWeightsProperties(t *testing.T) {
	f := func(seed int64) bool {
		alpha := math.Abs(float64(seed%40)) / 10 // 0..3.9
		w := ZipfWeights(64, alpha)
		var sum float64
		for i, v := range w {
			sum += v
			if i > 0 && v > w[i-1]+1e-15 {
				return false // must be non-increasing
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestZipfWeightsUniformAtZero(t *testing.T) {
	w := ZipfWeights(10, 0)
	for _, v := range w {
		if math.Abs(v-0.1) > 1e-12 {
			t.Errorf("alpha=0 weight = %v, want 0.1", v)
		}
	}
}

func TestZipfSkewIncreasesConcentration(t *testing.T) {
	prev := -1.0
	for _, alpha := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		w := ZipfWeights(1024, alpha)
		c := ConcentrationTopFraction(w, 0.05)
		if c <= prev {
			t.Errorf("alpha=%v: concentration %v not increasing (prev %v)", alpha, c, prev)
		}
		prev = c
	}
}

func TestHistogramDropsNaNAndInf(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	if h.Total != 0 {
		t.Errorf("Total = %d after non-finite adds, want 0", h.Total)
	}
	if h.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", h.Dropped)
	}
	for i, b := range h.Buckets {
		if b != 0 {
			t.Errorf("bucket %d = %d, want 0 (non-finite values must not land anywhere)", i, b)
		}
	}
	h.Add(5)
	if h.Total != 1 || h.Dropped != 3 {
		t.Errorf("after finite add: Total = %d, Dropped = %d, want 1, 3", h.Total, h.Dropped)
	}
}

func TestHistogramBoundaryValues(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	h.Add(0)  // v == Lo: first bucket
	h.Add(10) // v == Hi: clamps into the last bucket, not one past it
	if h.Buckets[0] != 1 {
		t.Errorf("Buckets[0] = %d, want 1 (v == Lo)", h.Buckets[0])
	}
	if h.Buckets[3] != 1 {
		t.Errorf("Buckets[3] = %d, want 1 (v == Hi)", h.Buckets[3])
	}
	if h.Total != 2 || h.Dropped != 0 {
		t.Errorf("Total = %d, Dropped = %d, want 2, 0", h.Total, h.Dropped)
	}
}

func TestHistogramDegenerateRange(t *testing.T) {
	h := NewHistogram(7, 7, 4) // Hi == Lo: single-point domain
	h.Add(7)
	h.Add(6) // below: clamps to bucket 0
	h.Add(8) // above: clamps to bucket 0
	h.Add(math.NaN())
	if h.Buckets[0] != 3 {
		t.Errorf("Buckets[0] = %d, want 3 (all finite values collapse to bucket 0)", h.Buckets[0])
	}
	if h.Total != 3 || h.Dropped != 1 {
		t.Errorf("Total = %d, Dropped = %d, want 3, 1", h.Total, h.Dropped)
	}
}

func TestHistogramFingerprint(t *testing.T) {
	build := func(vals ...float64) *Histogram {
		h := NewHistogram(0, 100, 8)
		for _, v := range vals {
			h.Add(v)
		}
		return h
	}
	a := build(1, 2, 3, 50, 99)
	b := build(1, 2, 3, 50, 99)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical histograms fingerprint differently")
	}
	c := build(1, 2, 3, 10, 99) // one observation in another bucket
	if a.Fingerprint() == c.Fingerprint() {
		t.Errorf("different bucket masses share a fingerprint")
	}
	d := build(1, 2, 3, 50, 99)
	d.Add(math.NaN()) // dropped observations are part of the shape
	if a.Fingerprint() == d.Fingerprint() {
		t.Errorf("Dropped count should alter the fingerprint")
	}
	var nilH *Histogram
	if nilH.Fingerprint() != (*Histogram)(nil).Fingerprint() {
		t.Errorf("nil fingerprint should be stable")
	}
}
