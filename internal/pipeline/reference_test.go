package pipeline

import (
	"fmt"
	"reflect"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/simnet"
)

// This file is the pipeline-level differential reference: the executor
// the engine ran before the streaming data plane replaced it, kept
// test-only. It materializes every mapped cell as a join.Tuple
// (shuffle.MapSide), simulates the whole alignment, then compares on
// one goroutine node by node, unit by unit in assignment order,
// assembling each unit whole (SliceSet.Assemble → SortTuples for merge →
// join.Run) and numbering synthetic rows node-major directly: one
// counter from 0, node by node in ascending order. It shares no data-plane or ordering code with the production
// stages — only the cost formulas, the output array, the projector's
// field resolution, Assemble, and the planners — and plugs in through the
// seam Execute already has: the stage list.

// RunReference is Run through ReferenceStages.
func RunReference(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (*Report, error) {
	dl, err := c.Catalog.Lookup(leftName)
	if err != nil {
		return nil, err
	}
	dr, err := c.Catalog.Lookup(rightName)
	if err != nil {
		return nil, err
	}
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	if err := Execute(qc, ReferenceStages()); err != nil {
		return nil, err
	}
	return qc.Report, nil
}

// ReferenceStages returns the standard pipeline with the reference
// executor substituted for the SliceMap, Align, and Compare stages.
func ReferenceStages() []Stage {
	ref := &reference{}
	return []Stage{LogicalPlan{}, refSliceMap{ref}, PhysicalPlan{}, refAlign{ref}, refCompare{ref}, Assemble{}}
}

// reference is the state the three substitute stages share.
type reference struct {
	ssl, ssr *shuffle.SliceSet
}

type refSliceMap struct{ *reference }

func (refSliceMap) Name() string { return SliceMap{}.Name() }

func (r refSliceMap) Run(qc *QueryContext) error {
	// PhysicalPlan prices the assignment from the streamed RunSets'
	// slice statistics, so the production stage runs too; the reference
	// checks those statistics against its own map and then drops the
	// streamed cells, so nothing downstream can read them.
	if err := (SliceMap{}).Run(qc); err != nil {
		return err
	}
	spec, lm, rm := logical.UnitSpecFor(qc.plan)
	var err error
	if r.ssl, err = shuffle.MapSide(qc.Left, qc.Cluster.K, spec, lm); err != nil {
		return err
	}
	if r.ssr, err = shuffle.MapSide(qc.Right, qc.Cluster.K, spec, rm); err != nil {
		return err
	}
	if !reflect.DeepEqual(r.ssl.Sizes(), qc.rsl.Sizes()) || !reflect.DeepEqual(r.ssr.Sizes(), qc.rsr.Sizes()) {
		return fmt.Errorf("reference: CountSlices and MapSide disagree on slice statistics")
	}
	for u := 0; u < spec.NumUnits; u++ {
		qc.rsl.ReleaseUnit(u)
		qc.rsr.ReleaseUnit(u)
	}
	return nil
}

type refAlign struct{ *reference }

func (refAlign) Name() string { return Align{}.Name() }

func (r refAlign) Run(qc *QueryContext) error {
	rep := qc.Report
	var transfers []simnet.Transfer
	for u := 0; u < qc.spec.NumUnits; u++ {
		dest := rep.Physical.Assignment[u]
		for node := 0; node < qc.Cluster.K; node++ {
			cells := int64(len(r.ssl.Slice(u, node)) + len(r.ssr.Slice(u, node)))
			if node != dest && cells > 0 {
				transfers = append(transfers, simnet.Transfer{From: node, To: dest, Cells: cells, Tag: u})
			}
		}
	}
	var err error
	rep.Align, err = simnet.Simulate(simnet.Config{
		Nodes:       qc.Cluster.K,
		PerCellTime: params.Transfer,
		Scheduling:  qc.Opt.Scheduling,
	}, transfers)
	rep.AlignTime = rep.Align.Makespan
	rep.LockWaitSeconds = rep.Align.LockWaitTime
	return err
}

type refCompare struct{ *reference }

func (refCompare) Name() string { return Compare{}.Name() }

func (r refCompare) Run(qc *QueryContext) error {
	k, rep, algo := qc.Cluster.K, qc.Report, qc.plan.Algo
	if err := qc.buildOutput(); err != nil {
		return err
	}
	qc.nodes = make([]nodeOut, k)
	rep.NodeCompareTime = make([]float64, k)
	for _, e := range qc.proj.attrs {
		if e.op != OpCol {
			return fmt.Errorf("reference: output expressions are checked in internal/aql, not here")
		}
	}
	var row int64
	for node := 0; node < k; node++ {
		no := &qc.nodes[node]
		cols := &array.Chunk{NDims: len(qc.outArr.Schema.Dims)}
		cols.Coords = make([][]int64, cols.NDims)
		cols.Cols = make([]array.Column, len(qc.proj.types))
		for i, typ := range qc.proj.types {
			cols.Cols[i].Type = typ
		}
		emit := func(lt, rt *join.Tuple) {
			if qc.proj.rowDim {
				cols.Coords[0] = append(cols.Coords[0], row)
				row++
			}
			for d, src := range qc.proj.dims {
				cols.Coords[d] = append(cols.Coords[d], tupleValue(src, lt, rt).AsInt())
			}
			for i, e := range qc.proj.attrs {
				cols.Cols[i].Append(tupleValue(e.src, lt, rt))
			}
		}
		for _, u := range qc.nodeUnits[node] {
			left, right := r.ssl.Assemble(u, node), r.ssr.Assemble(u, node)
			if algo == join.Merge {
				// Reassembled units are concatenations of sorted slices;
				// restore full key order (Section 3.4's preprocessing).
				join.SortTuples(left)
				join.SortTuples(right)
			}
			st, err := join.Run(algo, left, right, emit)
			if err != nil {
				return err
			}
			no.stats.Add(st)
			no.time += params.Unit(algo, int64(len(left)), int64(len(right)))
		}
		if no.cells = int64(cols.Len()); no.cells > 0 {
			qc.parts = append(qc.parts, cols)
		}
		addPostJoinTime(no, qc.plan)
		rep.JoinStats.Add(no.stats)
		rep.NodeCompareTime[node] = no.time
		rep.Nodes[node].OutputCells = no.cells
		if no.time > rep.CompareTime {
			rep.CompareTime = no.time
		}
	}
	rep.Matches = rep.JoinStats.Matches
	rep.Skew, rep.StragglerNode = SkewOf(rep.NodeCompareTime)
	return nil
}

// tupleValue reads a projector source from a matched tuple pair: a
// coordinate, or a carried attribute, which batch column idx holds after
// the len(Key) key columns.
func tupleValue(src source, l, r *join.Tuple) array.Value {
	t := l
	if src.side == 1 {
		t = r
	}
	if src.isDim {
		return array.IntValue(t.Coords[src.idx])
	}
	return t.Attrs[src.idx-len(t.Key)]
}
