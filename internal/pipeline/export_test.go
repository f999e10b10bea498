package pipeline

import (
	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/plancache"
)

// PlanSignature returns the cache signature RunDistributed would compute
// for this query, for the cache-invalidation tests. Distinct signatures
// guarantee distinct cache slots; the planners never see the difference
// between a cold miss and an absent cache.
func PlanSignature(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) plancache.Signature {
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	qc.Opt.normalize()
	return planSignature(qc)
}
