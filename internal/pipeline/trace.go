package pipeline

import (
	"fmt"
	"time"

	"shufflejoin/internal/obs"
)

// foldTrace derives the query's span tree and metrics from its Report:
// the one place either is written, called once by Execute when the query
// ends. Each stage that completed contributes its spans — wall-clock
// ones laid end to end from start by the stage log's wall seconds,
// simulated ones from the Report's modeled times — and its metrics, in
// stage order, so a failed query's trace holds everything up to the stage
// it failed in. The Report is deterministic, hence so is the capture.
func foldTrace(tr *obs.Trace, rep *Report, start time.Time, failed bool) {
	if !tr.Enabled() {
		return
	}
	root, reg := tr.Root(), tr.Metrics()
	for _, st := range rep.Stages {
		at := start
		start = start.Add(time.Duration(st.WallSeconds * float64(time.Second)))
		if !st.Done {
			continue
		}
		switch st.Stage {
		case LogicalPlan{}.Name():
			switch rep.CacheOutcome {
			case "hit", "suppressed", "revalidate-reject":
				// The plan was replayed from the cache, not made.
				reg.Counter("plancache.hit").Add(1)
				if rep.CacheOutcome == "suppressed" {
					reg.Counter("plancache.suppressed").Add(1)
				}
				continue
			case "miss":
				reg.Counter("plancache.miss").Add(1)
			}
			sp := root.Child("plan.logical", at, st.WallSeconds)
			sp.SetInt("candidates", int64(len(rep.Candidates)))
			sp.SetNum("selectivity", rep.Selectivity)
			sp.SetStr("best", rep.Candidates[0].Describe())
			reg.Counter("plan.candidates").Add(int64(len(rep.Candidates)))

		case SliceMap{}.Name():
			sp := root.Child("map.slices", at, st.WallSeconds)
			sp.SetInt("peak_batch_bytes", rep.PeakBatchBytes)
			sp.SetInt("interned_strings", rep.InternedStrings)
			sp.SetInt("units", int64(rep.Logical.NumUnits))
			reg.Gauge("pipeline.peak_batch_bytes").Set(float64(rep.PeakBatchBytes))
			reg.Gauge("pipeline.interned_strings").Set(float64(rep.InternedStrings))

		case PhysicalPlan{}.Name():
			pres := &rep.Physical
			sp := root.Child("plan.physical", at, st.WallSeconds)
			if pres.Search.ILPTasks > 0 {
				sp.SetInt("ilp.tasks", int64(pres.Search.ILPTasks))
				sp.SetInt("ilp.nodes_explored", pres.Search.ILPNodes)
				sp.SetInt("ilp.nodes_pruned", pres.Search.ILPPruned)
				sp.SetNum("ilp.seed_cost", pres.Search.SeedCost)
				sp.SetNum("ilp.objective", pres.Model.Total)
				var optimal int64
				if pres.Optimal {
					optimal = 1
				}
				sp.SetInt("ilp.optimal", optimal)
				sp.SetNum("ilp.solve_wall_seconds", rep.PlanTime)
			}
			if pres.Search.TabuRounds > 0 {
				sp.SetInt("tabu.rounds", int64(pres.Search.TabuRounds))
				sp.SetInt("tabu.moves", int64(pres.Search.TabuMoves))
				sp.SetInt("tabu.whatifs", pres.Search.TabuWhatIfs)
			}
			sp.SetStr("planner", pres.Planner)
			sp.SetNum("model_cost", pres.Model.Total)
			sp.SetInt("cells_moved", rep.CellsMoved)
			if rep.CacheOutcome == "revalidate-reject" {
				reg.Counter("plancache.revalidate_reject").Add(1)
			}
			reg.Counter("units.count").Add(int64(len(rep.UnitCells)))
			cellsHist := reg.Histogram("units.cells", obs.PowersOf2Buckets(2, 16))
			for _, cells := range rep.UnitCells {
				cellsHist.Observe(float64(cells))
			}
			reg.Counter("plan.ilp.nodes_explored").Add(pres.Search.ILPNodes)
			reg.Counter("plan.ilp.nodes_pruned").Add(pres.Search.ILPPruned)
			reg.Counter("plan.tabu.rounds").Add(int64(pres.Search.TabuRounds))
			reg.Counter("plan.tabu.moves").Add(int64(pres.Search.TabuMoves))
			reg.Counter("plan.tabu.whatifs").Add(pres.Search.TabuWhatIfs)

		case Align{}.Name():
			align := &rep.Align
			as := root.SimChild("align", 0, align.Makespan)
			as.SetInt("transfers", int64(len(align.Timeline)))
			as.SetInt("lock_waits", int64(align.LockWaits))
			as.SetInt("skipped_sends", int64(align.SkippedSends))
			as.SetNum("lock_wait_seconds", align.LockWaitTime)
			for _, ev := range align.Timeline {
				x := as.SimChild("xfer", ev.Start, ev.End)
				x.SetNum("transfer", 1)
				x.SetInt("from", int64(ev.From))
				x.SetInt("to", int64(ev.To))
				x.SetInt("unit", int64(ev.Tag))
				x.SetInt("cells", ev.Cells)
			}
			reg.Counter("align.transfers").Add(int64(len(align.Timeline)))
			reg.Counter("align.cells_moved").Add(rep.CellsMoved)
			reg.Counter("align.lock_waits").Add(int64(align.LockWaits))
			reg.Counter("align.skipped_sends").Add(int64(align.SkippedSends))
			reg.Gauge("align.lock_wait_seconds").Add(align.LockWaitTime)
			reg.Gauge("align.makespan_seconds").Add(align.Makespan)

		case Compare{}.Name():
			align := &rep.Align
			cs := root.SimChild("compare", align.Makespan, align.Makespan+rep.CompareTime)
			cs.SetNum("skew", rep.Skew)
			cs.SetInt("straggler_node", int64(rep.StragglerNode))
			reg.Gauge("compare.skew").Set(rep.Skew)
			reg.Gauge("compare.straggler_node").Set(float64(rep.StragglerNode))
			reg.Counter("compare.matches").Add(rep.Matches)
			for node, nl := range rep.Nodes {
				ns := cs.SimChild("compare.node", align.Makespan, align.Makespan+rep.NodeCompareTime[node])
				ns.SetNode(node)
				ns.SetInt("units", int64(nl.Units))
				ns.SetInt("output_cells", nl.OutputCells)
				pfx := fmt.Sprintf("node%02d.", node)
				reg.Counter(pfx + "assigned_cells").Add(nl.AssignedCells)
				reg.Gauge(pfx + "send_seconds").Add(align.SendBusy[node])
				reg.Gauge(pfx + "recv_seconds").Add(align.RecvBusy[node])
				reg.Gauge(pfx + "lock_wait_seconds").Add(align.RecvLockWait[node])
				reg.Gauge(pfx + "compare_seconds").Add(rep.NodeCompareTime[node])
			}
			reg.Counter("exec.steps").Add(1)

		case Assemble{}.Name():
			reg.Counter("compare.clamped_cells").Add(rep.ClampedCells)
		}
	}
	reg.Counter("pipeline.query_count").Add(1)
	if failed {
		reg.Counter("pipeline.query_errors").Add(1)
		return
	}
	// Align+compare, not Report.Total: Total folds in real planning
	// wall-time, and the histogram must stay bit-identical at every
	// Parallelism setting (trace fingerprints hash it exactly).
	reg.Histogram("pipeline.modeled_seconds", obs.PowersOf2Buckets(1, 12)).Observe(rep.AlignTime + rep.CompareTime)
}
