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

// RunBatchRows is Run with the data plane's columnar batches capped at
// rows rows each (0 uses shuffle.DefaultBatchRows), for the batch-size
// sweeps of the differential tests.
func RunBatchRows(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options, rows int) (*Report, error) {
	dl, err := c.Catalog.Lookup(leftName)
	if err != nil {
		return nil, err
	}
	dr, err := c.Catalog.Lookup(rightName)
	if err != nil {
		return nil, err
	}
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	qc.batchRows = rows
	if err := Execute(qc, DefaultStages()); err != nil {
		return nil, err
	}
	return qc.Report, nil
}
