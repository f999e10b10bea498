package pipeline

import (
	"math"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
)

// unitOut is one join unit's slot, written only by the worker that runs
// the unit: its output columns (nil when it matched nothing), join
// statistics, and modeled compare seconds. Synthetic row coordinates in
// it are unit-local (0, 1, 2, …) until fold renumbers them.
type unitOut struct {
	cols  *array.Chunk
	stats join.Stats
	time  float64
	err   error
}

// nodeOut is one node's merged comparison products: its output cell
// count, join statistics, and modeled compare seconds.
type nodeOut struct {
	cells int64
	stats join.Stats
	time  float64
	err   error
}

// buildOutput creates the destination array and compiles the output
// projection, from Options.Select when it is set.
func (qc *QueryContext) buildOutput() error {
	outArr, err := newOutputArray(qc.plan.JS)
	if err != nil {
		return err
	}
	proj, err := newProjector(qc.plan.JS, qc.Opt.Select)
	if err != nil {
		return err
	}
	qc.outArr, qc.proj = outArr, proj
	return nil
}

// runUnit joins unit u on its destination node, writing into res, the
// unit's own slot. The kernel reads both sides' runs in place and lists
// the matches; the projector gathers them into the slot's output
// columns, so the unit is released as soon as it returns.
func (qc *QueryContext) runUnit(u int, res *unitOut) {
	// Per-unit cancellation point: a canceled query skips its remaining
	// units (fold surfaces the context error from the first skipped
	// slot) instead of comparing to completion.
	if err := qc.ctx.Err(); err != nil {
		res.err = err
		return
	}
	dest := qc.Report.Physical.Assignment[u]
	nl, nr := qc.rsl.UnitTotal(u), qc.rsr.UnitTotal(u)
	s := getUnitScratch()
	s.runs[0] = qc.rsl.Run(u, dest, s.runs[0].Spans[:0])
	s.runs[1] = qc.rsr.Run(u, dest, s.runs[1].Spans[:0])
	nkey := len(qc.plan.JS.Pred.Resolved.Left)
	st, err := join.RunColumns(qc.plan.Algo, s.runs[0], s.runs[1], nkey, qc.intern, &s.m)
	if err == nil && len(s.m.L) > 0 {
		res.cols = qc.proj.project(qc.outArr.Schema, s, qc.intern.Strs())
	}
	s.release(max(nl, nr))
	// The unit is fully consumed: return its bytes to the query budget.
	qc.rsl.ReleaseUnit(u)
	qc.rsr.ReleaseUnit(u)
	if err != nil {
		res.err = err
		return
	}
	res.stats = st
	res.time = unitModelTime(qc.plan.Algo, int(nl), int(nr))
}

// fold merges per-unit slots into per-node outputs in deterministic
// order — node ascending, units in assignment order — writing the node's
// stride-K synthetic row numbers (node, node+K, node+2K, …) into the row
// column in that order and accumulating modeled seconds in that same
// order, so the merged nodeOut values do not depend on which worker ran
// which unit when. It copies no cells: it lists the units' output parts
// (cells in emit order within each; none is empty) in that same order,
// which is the order Assemble writes them in — as does the tests'
// reference executor, which is what makes their outputs directly
// comparable.
func (qc *QueryContext) fold(results []unitOut) ([]nodeOut, []*array.Chunk) {
	k := qc.Cluster.K
	nodes, parts := make([]nodeOut, k), make([]*array.Chunk, 0, len(results))
	for node := 0; node < k; node++ {
		no := &nodes[node]
		row := int64(node)
		for _, u := range qc.nodeUnits[node] {
			res := &results[u]
			if res.err != nil {
				no.err = res.err
				break
			}
			if c := res.cols; c != nil {
				if qc.proj.rowDim {
					rows := c.Coords[0]
					for i := range rows {
						rows[i] = row
						row += int64(k)
					}
				}
				parts = append(parts, c)
				no.cells += int64(c.Len())
			}
			no.stats.Add(res.stats)
			no.time += res.time
		}
		addPostJoinTime(no, qc.plan)
	}
	return nodes, parts
}

// addPostJoinTime models the per-node post-join output handling: sorting
// or redimensioning the node's output cells when the plan calls for it
// (OutSort / OutRedim).
func addPostJoinTime(no *nodeOut, lp *logical.Plan) {
	if lp.Out != logical.OutScan && no.cells > 0 {
		n := float64(no.cells)
		no.time += params.Merge * n * math.Log2(math.Max(n, 2))
		if lp.Out == logical.OutRedim {
			no.time += params.Merge * n
		}
	}
}
