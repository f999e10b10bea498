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
// (shuffle.MapSideN), simulates the whole alignment, then compares on
// one goroutine node by node, unit by unit in assignment order,
// assembling each unit whole (SliceSet.Assemble → SortTuples for merge →
// join.Run) and numbering synthetic rows node, node+K, node+2K, …
// directly. It shares no data-plane or ordering code with the production
// stages — only the cost formulas, the output array and projector, and
// the planners — and plugs in through the seam Execute already has: the
// stage list.

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
	if r.ssl, err = shuffle.MapSideN(qc.Left, qc.Cluster.K, spec, lm, 1); err != nil {
		return err
	}
	if r.ssr, err = shuffle.MapSideN(qc.Right, qc.Cluster.K, spec, rm, 1); err != nil {
		return err
	}
	if !reflect.DeepEqual(r.ssl.Sizes(), qc.rsl.Sizes()) || !reflect.DeepEqual(r.ssr.Sizes(), qc.rsr.Sizes()) {
		return fmt.Errorf("reference: MapSideStream and MapSideN disagree on slice statistics")
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
	for node := 0; node < k; node++ {
		no := &qc.nodes[node]
		nproj := qc.proj.forUnit()
		row := int64(node)
		emit := func(lt, rt *join.Tuple) {
			coords, attrs := nproj.project(lt, rt)
			if nproj.rowDim {
				coords[0] = row
				row += int64(k)
			}
			no.cells = append(no.cells, array.StoredCell{Coords: coords, Attrs: attrs})
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
			no.time += unitModelTime(algo, len(left), len(right))
		}
		addPostJoinTime(no, qc.plan)
		rep.JoinStats.Add(no.stats)
		rep.NodeCompareTime[node] = no.time
		rep.Nodes[node].OutputCells = int64(len(no.cells))
		if no.time > rep.CompareTime {
			rep.CompareTime = no.time
		}
	}
	rep.Matches = rep.JoinStats.Matches
	rep.Skew, rep.StragglerNode = SkewOf(rep.NodeCompareTime)
	return nil
}
