// Package cardinality estimates equi-join output sizes for the logical
// planner. The paper defers output cardinality estimation to
// generalizations of power-law spatial selectivity estimation (Faloutsos
// et al., SIGMOD Record 2000, the paper's [16]); this package provides
// that generalization for array joins: histogram-based estimation for
// attribute joins, with a power-law (self-similarity) correction for
// skewed value distributions.
//
// The logical planner only needs to know whether the output exceeds the
// inputs to place sorts well (Section 4), so coarse estimates suffice.
package cardinality

import (
	"math"

	"shufflejoin/internal/stats"
)

// EquiJoinFromHistograms estimates Σ_v a(v)·b(v) from two equi-width
// histograms over the key domain. Within each aligned bucket the estimate
// assumes the bucket's mass is spread over its distinct values; the
// SkewCorrection factor (≥1) compensates for within-bucket value skew.
//
// Histogram bucket ranges need not match: both are resampled onto the
// union domain at the finer bucket width.
func EquiJoinFromHistograms(a, b *stats.Histogram, corr float64) float64 {
	if a == nil || b == nil || a.Total == 0 || b.Total == 0 {
		return 0
	}
	if corr < 1 {
		corr = 1
	}
	lo := math.Min(a.Lo, b.Lo)
	hi := math.Max(a.Hi, b.Hi)
	buckets := len(a.Buckets)
	if len(b.Buckets) > buckets {
		buckets = len(b.Buckets)
	}
	if hi <= lo {
		// Single-point domain: everything joins with everything.
		return float64(a.Total) * float64(b.Total) * corr
	}
	ra := resample(a, lo, hi, buckets)
	rb := resample(b, lo, hi, buckets)
	width := (hi - lo) / float64(buckets)
	distinct := math.Max(width, 1) // integer keys: ≥1 distinct value per unit width
	var est float64
	for i := 0; i < buckets; i++ {
		est += ra[i] * rb[i] / distinct
	}
	return est * corr
}

// resample projects a histogram onto [lo, hi] with the given bucket count,
// splitting source-bucket mass proportionally by overlap.
func resample(h *stats.Histogram, lo, hi float64, buckets int) []float64 {
	out := make([]float64, buckets)
	if h.Total == 0 {
		return out
	}
	srcW := (h.Hi - h.Lo) / float64(len(h.Buckets))
	dstW := (hi - lo) / float64(buckets)
	if srcW <= 0 {
		// Degenerate source: all mass at h.Lo.
		idx := int((h.Lo - lo) / dstW)
		if idx < 0 {
			idx = 0
		}
		if idx >= buckets {
			idx = buckets - 1
		}
		out[idx] = float64(h.Total)
		return out
	}
	for i, cnt := range h.Buckets {
		if cnt == 0 {
			continue
		}
		sLo := h.Lo + float64(i)*srcW
		sHi := sLo + srcW
		// Distribute cnt over destination buckets overlapping [sLo, sHi].
		first := int((sLo - lo) / dstW)
		last := int((sHi - lo) / dstW)
		if first < 0 {
			first = 0
		}
		if last >= buckets {
			last = buckets - 1
		}
		for d := first; d <= last; d++ {
			dLo := lo + float64(d)*dstW
			dHi := dLo + dstW
			overlap := math.Min(sHi, dHi) - math.Max(sLo, dLo)
			if overlap > 0 {
				out[d] += float64(cnt) * overlap / srcW
			}
		}
	}
	return out
}

// SkewCorrection derives the within-bucket skew multiplier from a
// histogram's bucket-mass distribution, exploiting statistical
// self-similarity: value frequencies inside buckets tend to follow the
// same power law as mass across buckets (the [16] insight). For a Zipf-α
// frequency distribution the expected Σf² inflates over the uniform case
// by the normalized second moment of the fitted law.
func SkewCorrection(h *stats.Histogram) float64 {
	if h == nil || h.Total == 0 {
		return 1
	}
	// Rank the bucket masses and fit a power law: mass ~ C·rank^-α.
	masses := make([]float64, 0, len(h.Buckets))
	for _, c := range h.Buckets {
		if c > 0 {
			masses = append(masses, float64(c))
		}
	}
	if len(masses) < 3 {
		return 1
	}
	// Sort descending (tiny: insertion sort).
	for i := 1; i < len(masses); i++ {
		for j := i; j > 0 && masses[j] > masses[j-1]; j-- {
			masses[j], masses[j-1] = masses[j-1], masses[j]
		}
	}
	ranks := make([]float64, len(masses))
	for i := range ranks {
		ranks[i] = float64(i + 1)
	}
	fit, err := stats.PowerLaw(ranks, masses)
	if err != nil || fit.Exponent >= 0 {
		return 1
	}
	alpha := -fit.Exponent
	// Second-moment inflation of a Zipf-α law over n ranks relative to
	// uniform: n·Σw² where w are normalized Zipf weights.
	n := len(masses)
	w := stats.ZipfWeights(n, alpha)
	var sumSq float64
	for _, wi := range w {
		sumSq += wi * wi
	}
	corr := float64(n) * sumSq
	if corr < 1 {
		corr = 1
	}
	// Cap: correction is a heuristic; runaway fits must not dominate.
	return math.Min(corr, 64)
}

// Selectivity converts an output estimate into the paper's selectivity
// convention: sel = n_out / (nA + nB), floored at a small positive value
// so downstream cost formulas stay defined.
func Selectivity(nOut float64, nA, nB int64) float64 {
	denom := float64(nA + nB)
	if denom <= 0 {
		return 1
	}
	sel := nOut / denom
	if sel < 1e-6 {
		sel = 1e-6
	}
	return sel
}
