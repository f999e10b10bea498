package pipeline

import (
	"math"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cardinality"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/stats"
)

// EstimateSelectivity predicts the join's output cardinality when the
// caller supplied none, converting it to the paper's selectivity
// convention (n_out = sel·(nA+nB)). Per predicate pair it estimates the
// probability that a random cell pair matches — dimension pairs via key
// space overlap, attribute pairs via histogram-based power-law estimation
// — and combines pairs under independence. The logical planner only needs
// to know whether the output exceeds its inputs (Section 4), so coarse
// estimates suffice.
func EstimateSelectivity(c *cluster.Cluster, left, right *cluster.Distributed, src *logical.ResolvedSources) float64 {
	return estimateSelectivity(catalogHistogram(c, left, right), src, left.Array.CellCount(), right.Array.CellCount())
}

// estimateSelectivity is EstimateSelectivity with an injectable histogram
// source (the catalog in production, stubs in tests).
func estimateSelectivity(hist func(arrayName, attrName string) *stats.Histogram, src *logical.ResolvedSources, nA, nB int64) float64 {
	if nA == 0 || nB == 0 {
		return 1e-6
	}
	pairProb := 1.0
	for i := range src.Resolved.Pred {
		lref, rref := src.Resolved.Left[i], src.Resolved.Right[i]
		if lref.IsDim && rref.IsDim {
			ld, rd := src.Left.Dims[lref.Index], src.Right.Dims[rref.Index]
			lo := math.Min(float64(ld.Start), float64(rd.Start))
			hi := math.Max(float64(ld.End), float64(rd.End))
			extent := hi - lo + 1
			if extent < 1 {
				extent = 1
			}
			pairProb *= 1 / extent
			continue
		}
		ha := sideHistogram(hist, src.Left, lref, nA)
		hb := sideHistogram(hist, src.Right, rref, nB)
		if ha == nil || hb == nil || ha.Total == 0 || hb.Total == 0 {
			// No statistics (string keys, or an empty attribute column whose
			// histogram has zero mass — EquiJoinFromHistograms would estimate
			// zero matches and zero out the product): neutral guess.
			pairProb *= 1 / math.Max(float64(nA), 1)
			continue
		}
		corr := math.Sqrt(cardinality.SkewCorrection(ha) * cardinality.SkewCorrection(hb))
		matches := cardinality.EquiJoinFromHistograms(ha, hb, corr)
		pairProb *= matches / (float64(nA) * float64(nB))
	}
	nOut := float64(nA) * float64(nB) * pairProb
	return cardinality.Selectivity(nOut, nA, nB)
}

// sideHistogram returns value statistics for one predicate term: the
// catalog's attribute histogram, or — for a dimension term — a synthetic
// uniform histogram over the dimension range (the coordinate distribution
// the catalog would keep). String attributes have no numeric histogram.
func sideHistogram(hist func(arrayName, attrName string) *stats.Histogram, s *array.Schema, ref join.Ref, n int64) *stats.Histogram {
	if ref.IsDim {
		d := s.Dims[ref.Index]
		h := stats.NewHistogram(float64(d.Start), float64(d.End), 64)
		per := n / int64(len(h.Buckets))
		for i := range h.Buckets {
			h.Buckets[i] = per
		}
		h.Buckets[0] += n % int64(len(h.Buckets))
		h.Total = n
		return h
	}
	if s.Attrs[ref.Index].Type == array.TypeString {
		return nil
	}
	return hist(s.Name, ref.Name)
}
