package pipeline

import (
	"fmt"
	"strings"

	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
)

// planSignature digests everything the planners consume for this query.
// The per-side data fingerprints (cluster.DataFingerprint) cover schema
// string, chunk grid, per-chunk cell counts, chunk placement, and the
// skew histogram's fingerprint, so a re-ingest of the same schema under
// a different skew profile — the Skew Strikes Back hazard — changes the
// signature and misses by construction. The remaining fields pin the
// planning options that select or price plans, and the attributes the
// Select list has carried (selectCarry). Options must be normalized
// before signing.
func planSignature(qc *QueryContext, carry [2][]string) plancache.Signature {
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
	fmt.Fprintf(&b, "|planner:%s|sel:%g|carryL:%v|carryR:%v", plannerKey(opt.Planner),
		opt.Selectivity, carry[0], carry[1])
	if opt.ForceAlgo != nil {
		fmt.Fprintf(&b, "|force:%v", *opt.ForceAlgo)
	}
	return plancache.Signature(b.String())
}

// plannerKey renders a planner's name and every setting that can change
// the assignment it returns. Workers is left out: every planner returns
// the same plan at every worker count, and the facade derives it from
// the query's parallelism.
func plannerKey(p physical.Planner) string {
	switch t := p.(type) {
	case physical.GreedyPlanner:
		fallback := "none"
		if t.Fallback != nil {
			fallback = plannerKey(t.Fallback)
		}
		return fmt.Sprintf("%s{Epsilon:%g Fallback:%s}", t.Name(), t.Epsilon, fallback)
	case physical.TabuPlanner:
		t.Workers = 0
		p = t
	case physical.ILPPlanner:
		t.Workers = 0
		p = t
	case physical.CoarseILPPlanner:
		t.Workers = 0
		p = t
	}
	return fmt.Sprintf("%s%+v", p.Name(), p)
}
