package pipeline

import (
	"math"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
)

// nodeOut is one node's merged comparison products: the cells it emitted
// (in deterministic order), its join statistics, and its modeled compare
// seconds. The Compare stage hands Assemble a []nodeOut indexed by node —
// as does the tests' reference executor, which is what makes their
// outputs directly comparable. Before fold, the Compare stage uses the
// same type for each join unit's slot, whose synthetic row coordinates
// are unit-local (0, 1, 2, …).
type nodeOut struct {
	cells []array.StoredCell
	stats join.Stats
	time  float64
	err   error
}

// buildOutput creates the destination array and the output projector,
// with Options.ProjectFactory's attribute function when one is set.
func (qc *QueryContext) buildOutput() error {
	outArr, err := newOutputArray(qc.plan.JS)
	if err != nil {
		return err
	}
	var attrFn func(l, r *join.Tuple) []array.Value
	if qc.Opt.ProjectFactory != nil {
		if attrFn, err = qc.Opt.ProjectFactory(qc.plan.JS); err != nil {
			return err
		}
	}
	proj, err := newProjector(qc.plan.JS, attrFn)
	if err != nil {
		return err
	}
	qc.outArr, qc.proj = outArr, proj
	return nil
}

// runUnit assembles and joins unit u on its destination node through a
// pull-chain of pooled TupleReaders, writing into res, the unit's own
// slot. The projector copies every emitted value, so the unit's batches
// are recycled the moment the join returns.
func (qc *QueryContext) runUnit(u int, res *nodeOut) {
	// Per-unit cancellation point: a canceled query skips its remaining
	// units (fold surfaces the context error from the first skipped
	// slot) instead of comparing to completion.
	if err := qc.ctx.Err(); err != nil {
		res.err = err
		return
	}
	dest := qc.Report.Physical.Assignment[u]
	uproj := qc.proj.forUnit()
	emit := func(l, r *join.Tuple) {
		coords, attrs := uproj.project(l, r)
		res.cells = append(res.cells, array.StoredCell{Coords: coords, Attrs: attrs})
	}
	lrd := qc.rsl.Reader(u, dest)
	rrd := qc.rsr.Reader(u, dest)
	nl, nr := lrd.Len(), rrd.Len()
	st, err := join.RunStream(qc.plan.Algo, lrd, rrd, emit)
	lrd.Close()
	rrd.Close()
	// The unit is fully consumed: recycle its batches and return
	// their bytes to the query budget.
	qc.rsl.ReleaseUnit(u)
	qc.rsr.ReleaseUnit(u)
	if err != nil {
		res.err = err
		return
	}
	res.stats = st
	res.time = unitModelTime(qc.plan.Algo, nl, nr)
}

// fold merges per-unit slots into per-node outputs in deterministic
// order — node ascending, units in assignment order, cells in emit order —
// renumbering synthetic row coordinates to the node's stride-K sequence
// and accumulating modeled seconds in that same order, so the merged
// nodeOut values do not depend on which worker ran which unit when.
func (qc *QueryContext) fold(results []nodeOut) []nodeOut {
	k := qc.Cluster.K
	nodes := make([]nodeOut, k)
	for node := 0; node < k; node++ {
		no := &nodes[node]
		row := int64(node)
		for _, u := range qc.nodeUnits[node] {
			res := &results[u]
			if res.err != nil {
				no.err = res.err
				break
			}
			if qc.proj.rowDim {
				for i := range res.cells {
					res.cells[i].Coords[0] = row
					row += int64(k)
				}
			}
			no.cells = append(no.cells, res.cells...)
			no.stats.Add(res.stats)
			no.time += res.time
		}
		addPostJoinTime(no, qc.plan)
	}
	return nodes
}

// addPostJoinTime models the per-node post-join output handling: sorting
// or redimensioning the node's output cells when the plan calls for it
// (OutSort / OutRedim).
func addPostJoinTime(no *nodeOut, lp *logical.Plan) {
	if lp.Out != logical.OutScan && len(no.cells) > 0 {
		n := float64(len(no.cells))
		no.time += params.Merge * n * math.Log2(math.Max(n, 2))
		if lp.Out == logical.OutRedim {
			no.time += params.Merge * n
		}
	}
}
