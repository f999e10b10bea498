package cardinality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shufflejoin/internal/stats"
)

// EquiJoinFromCounts computes the exact match count from per-value
// frequency maps: Σ_v a(v)·b(v). The reference the histogram estimates are
// checked against.
func EquiJoinFromCounts(a, b map[int64]int64) int64 {
	// Iterate the smaller map.
	if len(b) < len(a) {
		a, b = b, a
	}
	var n int64
	for v, ca := range a {
		n += ca * b[v]
	}
	return n
}

// histOf builds a histogram and a frequency map from the given values.
func histOf(values []int64, buckets int) (*stats.Histogram, map[int64]int64) {
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h := stats.NewHistogram(float64(lo), float64(hi), buckets)
	counts := make(map[int64]int64)
	for _, v := range values {
		h.Add(float64(v))
		counts[v]++
	}
	return h, counts
}

func uniformValues(rng *rand.Rand, n int, domain int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(domain)
	}
	return out
}

func zipfValues(rng *rand.Rand, n int, domain uint64, s float64) []int64 {
	z := rand.NewZipf(rng, s, 1, domain-1)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

func TestExactFromCounts(t *testing.T) {
	a := map[int64]int64{1: 2, 2: 3, 5: 1}
	b := map[int64]int64{2: 4, 5: 5, 9: 7}
	if got := EquiJoinFromCounts(a, b); got != 3*4+1*5 {
		t.Errorf("EquiJoinFromCounts = %d, want 17", got)
	}
	if got := EquiJoinFromCounts(b, a); got != 17 {
		t.Error("not symmetric")
	}
}

func TestHistogramEstimateUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	av := uniformValues(rng, 50_000, 10_000)
	bv := uniformValues(rng, 50_000, 10_000)
	ha, ca := histOf(av, 64)
	hb, cb := histOf(bv, 64)
	exact := float64(EquiJoinFromCounts(ca, cb))
	est := EquiJoinFromHistograms(ha, hb, 1)
	if est < exact/3 || est > exact*3 {
		t.Errorf("uniform estimate %.0f vs exact %.0f (want within 3x)", est, exact)
	}
}

func TestHistogramEstimateSkewNeedsCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	av := zipfValues(rng, 50_000, 10_000, 1.3)
	bv := zipfValues(rng, 50_000, 10_000, 1.3)
	ha, ca := histOf(av, 64)
	hb, cb := histOf(bv, 64)
	exact := float64(EquiJoinFromCounts(ca, cb))
	plain := EquiJoinFromHistograms(ha, hb, 1)
	corr := math.Sqrt(SkewCorrection(ha) * SkewCorrection(hb))
	corrected := EquiJoinFromHistograms(ha, hb, corr)
	if plain >= exact {
		t.Skip("plain estimate not an underestimate on this seed; correction untestable")
	}
	// The power-law correction must move the estimate toward the truth.
	if math.Abs(corrected-exact) >= math.Abs(plain-exact) {
		t.Errorf("correction did not help: plain %.0f corrected %.0f exact %.0f", plain, corrected, exact)
	}
	if corr <= 1 {
		t.Errorf("skewed data should yield correction > 1, got %v", corr)
	}
}

func TestSkewCorrectionUniformIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, _ := histOf(uniformValues(rng, 40_000, 5_000), 64)
	if c := SkewCorrection(h); c > 1.5 {
		t.Errorf("uniform correction = %v, want ~1", c)
	}
	if c := SkewCorrection(nil); c != 1 {
		t.Errorf("nil correction = %v", c)
	}
}

func TestEstimateEmptyInputs(t *testing.T) {
	h := stats.NewHistogram(0, 10, 4)
	if got := EquiJoinFromHistograms(h, h, 1); got != 0 {
		t.Errorf("empty estimate = %v", got)
	}
	if got := EquiJoinFromHistograms(nil, h, 1); got != 0 {
		t.Errorf("nil estimate = %v", got)
	}
}

func TestEstimateDisjointDomains(t *testing.T) {
	a := stats.NewHistogram(0, 99, 10)
	b := stats.NewHistogram(1000, 1099, 10)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 100))
		b.Add(float64(1000 + i%100))
	}
	est := EquiJoinFromHistograms(a, b, 1)
	if est > 50 { // ~0 expected; allow resampling fuzz
		t.Errorf("disjoint estimate = %v, want ~0", est)
	}
}

func TestResampleConservesMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := stats.NewHistogram(0, float64(rng.Intn(500)+100), rng.Intn(30)+2)
		n := rng.Intn(5000) + 100
		for i := 0; i < n; i++ {
			h.Add(rng.Float64() * h.Hi)
		}
		out := resample(h, -10, h.Hi+10, rng.Intn(50)+2)
		var sum float64
		for _, v := range out {
			sum += v
		}
		return math.Abs(sum-float64(h.Total)) < 1e-6*float64(h.Total)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectivityConvention(t *testing.T) {
	if got := Selectivity(2000, 1000, 1000); got != 1 {
		t.Errorf("Selectivity = %v, want 1", got)
	}
	if got := Selectivity(0, 1000, 1000); got != 1e-6 {
		t.Errorf("floored selectivity = %v", got)
	}
	if got := Selectivity(100, 0, 0); got != 1 {
		t.Errorf("zero-input selectivity = %v", got)
	}
}
