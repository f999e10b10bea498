package pipeline

import (
	"fmt"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/plancache"
)

// planSignature digests everything the planners consume for this query.
// The per-side data fingerprints (cluster.DataFingerprint) cover schema
// string, chunk grid, per-chunk cell counts, chunk placement, and the
// skew histogram's fingerprint, so a re-ingest of the same schema under
// a different skew profile — the Skew Strikes Back hazard — changes the
// signature and misses by construction. The remaining fields pin the
// planning options that select or price plans. Options must be
// normalized before signing.
func planSignature(qc *QueryContext) plancache.Signature {
	opt := qc.Opt
	var b strings.Builder
	fmt.Fprintf(&b, "L:%016x|R:%016x|K:%d", qc.Left.DataFingerprint(), qc.Right.DataFingerprint(), qc.Cluster.K)
	fmt.Fprintf(&b, "|pred:%s", qc.Pred)
	// The data fingerprint covers grid shape and per-chunk cell counts but
	// not attribute values; the predicate columns' value histograms drive
	// selectivity estimation and the logical plan choice, so sign them too
	// (cheap: histograms are cached per Distributed).
	for _, pp := range qc.Pred {
		if h := qc.Left.AttrHistogram(pp.Left.Name); h != nil {
			fmt.Fprintf(&b, "|hl:%016x", h.Fingerprint())
		}
		if h := qc.Right.AttrHistogram(pp.Right.Name); h != nil {
			fmt.Fprintf(&b, "|hr:%016x", h.Fingerprint())
		}
	}
	if qc.Out != nil {
		fmt.Fprintf(&b, "|out:%s", qc.Out)
	}
	fmt.Fprintf(&b, "|planner:%s|sel:%g|hb:%d|carryL:%v|carryR:%v", opt.Planner.Name(),
		opt.Logical.Selectivity, opt.Logical.HashBuckets, opt.ExtraCarryLeft, opt.ExtraCarryRight)
	if opt.ForceAlgo != nil {
		fmt.Fprintf(&b, "|force:%v", *opt.ForceAlgo)
	}
	if opt.PlanPolicy != nil {
		fmt.Fprintf(&b, "|eps:%g|polish:%d", opt.PlanPolicy.Epsilon, opt.PlanPolicy.Polish)
	}
	return plancache.Signature(b.String())
}

// PlanSignature returns the cache signature RunDistributed would compute
// for this query — exposed for cache-invalidation tests and debugging.
// Distinct signatures guarantee distinct cache slots; the planners never
// see the difference between a cold miss and an absent cache.
func PlanSignature(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) plancache.Signature {
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	qc.Opt.normalize()
	return planSignature(qc)
}
