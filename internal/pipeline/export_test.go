package pipeline

import (
	"fmt"

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

// FirstOutOfRange runs the query's stages up to Compare and returns the
// error text strict bounds must fail Assemble with: the first output
// cell, in node order, then unit assignment order, then emit order, with
// a coordinate outside its dimension, found cell by cell. It returns ""
// when every cell is in range.
func FirstOutOfRange(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (string, error) {
	dl, err := c.Catalog.Lookup(leftName)
	if err != nil {
		return "", err
	}
	dr, err := c.Catalog.Lookup(rightName)
	if err != nil {
		return "", err
	}
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	stages := DefaultStages()
	if err := Execute(qc, stages[:len(stages)-1]); err != nil {
		return "", err
	}
	for _, part := range qc.parts {
		for row := 0; row < part.Len(); row++ {
			coords := part.CoordsAt(row, nil)
			for d, dim := range qc.outArr.Schema.Dims {
				if _, err := dim.Clamp(coords[d], true); err != nil {
					return fmt.Sprintf("pipeline: output cell %v: %v", coords, err), nil
				}
			}
		}
	}
	return "", nil
}
