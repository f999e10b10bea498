// Package stats provides the statistical utilities the shuffle join
// framework relies on: equi-width histograms used for dimension inference
// during schema resolution (Section 4 of the paper), linear and power-law
// regression with coefficients of determination (used in the evaluation to
// validate the logical and physical cost models), and the Zipf weights the
// skewed workloads are drawn from.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// LinearFit is the least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
}

// ErrDegenerate is returned when a regression has too few points or zero
// variance in x.
var ErrDegenerate = errors.New("stats: degenerate regression input")

// Linear fits a least-squares line to (x, y) pairs.
func Linear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if n < 2 {
		return LinearFit{}, ErrDegenerate
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		// r^2 of the fitted line.
		var ssRes float64
		for i := range xs {
			e := ys[i] - (fit.Slope*xs[i] + fit.Intercept)
			ssRes += e * e
		}
		fit.R2 = 1 - ssRes/syy
	}
	return fit, nil
}

// PowerLawFit is y = C * x^Exponent fitted in log-log space, with the r² of
// the log-log regression (the correlation statistic quoted in the paper's
// Figure 5 discussion).
type PowerLawFit struct {
	C, Exponent float64
	R2          float64
}

// PowerLaw fits a power law to strictly positive (x, y) pairs.
func PowerLaw(xs, ys []float64) (PowerLawFit, error) {
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	lin, err := Linear(lx, ly)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{C: math.Exp(lin.Intercept), Exponent: lin.Slope, R2: lin.R2}, nil
}

// Histogram is an equi-width histogram over a numeric value range. The
// logical planner uses attribute histograms to infer dimension extents and
// chunk intervals when a redimensioned attribute has no source dimension to
// copy (Section 4, "Join Schema Definition").
type Histogram struct {
	Lo, Hi  float64 // value range covered, [Lo, Hi]
	Buckets []int64
	Total   int64
	// Dropped counts NaN and ±Inf observations rejected by Add. They carry
	// no position on the value axis (int(NaN*n) is platform-defined), so
	// filing them into a bucket would silently corrupt the distribution and
	// inflate Total; instead they are counted here as a data-quality signal.
	Dropped int64
}

// NewHistogram builds an equi-width histogram with nBuckets over [lo, hi].
func NewHistogram(lo, hi float64, nBuckets int) *Histogram {
	if nBuckets < 1 {
		nBuckets = 1
	}
	if hi < lo {
		hi = lo
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, nBuckets)}
}

// Add records one observation. Out-of-range finite values clamp to the end
// buckets; NaN and ±Inf observations are dropped and counted in Dropped.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.Dropped++
		return
	}
	idx := h.bucketOf(v)
	h.Buckets[idx]++
	h.Total++
}

func (h *Histogram) bucketOf(v float64) int {
	if h.Hi == h.Lo {
		return 0
	}
	f := (v - h.Lo) / (h.Hi - h.Lo)
	idx := int(f * float64(len(h.Buckets)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Buckets) {
		idx = len(h.Buckets) - 1
	}
	return idx
}

// Fingerprint returns a 64-bit FNV-1a digest of the histogram's shape:
// range, bucket masses, and the Total/Dropped counters. Two histograms
// fingerprint equal iff they describe the same distribution at the same
// resolution, which is what signature-keyed plan caching needs — a plan
// computed against one skew profile must not be reused under another.
func (h *Histogram) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if h == nil {
		return offset64
	}
	f := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			f ^= v & 0xff
			f *= prime64
			v >>= 8
		}
	}
	mix(math.Float64bits(h.Lo))
	mix(math.Float64bits(h.Hi))
	mix(uint64(len(h.Buckets)))
	for _, b := range h.Buckets {
		mix(uint64(b))
	}
	mix(uint64(h.Total))
	mix(uint64(h.Dropped))
	return f
}

// ValueRange returns the observed value range as integer bounds, suitable
// for deriving a dimension extent.
func (h *Histogram) ValueRange() (lo, hi int64) {
	return int64(math.Floor(h.Lo)), int64(math.Ceil(h.Hi))
}

// ZipfWeights returns the normalized Zipf probability weights for n ranks
// at skew alpha: weight(rank k) ∝ 1/k^alpha. alpha = 0 is uniform; larger
// alpha concentrates mass on low ranks. These are the join-unit and slice
// size distributions used throughout Section 6.2.
func ZipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		w[k] = 1 / math.Pow(float64(k+1), alpha)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}
