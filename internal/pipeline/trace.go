package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"shufflejoin/internal/obs"
)

// The query's metrics and its Chrome trace are not captured while it
// runs: both are rendered from the finished Report when a caller asks,
// and read nothing else. Each stage that completed contributes, in stage
// order, so a failed query renders everything up to the stage it failed
// in. The Report's modeled fields are deterministic, hence so is every
// render apart from its wall-clock quantities.

// FoldMetrics folds one finished query's Report into reg. failed marks a
// query that ended in an error: it counts under pipeline.query_errors and
// stays out of the modeled-seconds histogram.
func FoldMetrics(reg *obs.Registry, rep *Report, failed bool) {
	for _, st := range rep.Stages {
		if !st.Done {
			continue
		}
		switch st.Stage {
		case LogicalPlan{}.Name():
			switch rep.CacheOutcome {
			case "hit", "revalidate-reject":
				// The plan was replayed from the cache, not made.
				reg.Counter("plancache.hit").Add(1)
				continue
			case "miss":
				reg.Counter("plancache.miss").Add(1)
			}
			reg.Counter("plan.candidates").Add(int64(len(rep.Candidates)))

		case SliceMap{}.Name():
			reg.Gauge("pipeline.peak_batch_bytes").Set(float64(rep.PeakBatchBytes))
			reg.Gauge("pipeline.interned_strings").Set(float64(rep.InternedStrings)) // set by Align

		case PhysicalPlan{}.Name():
			search := &rep.Physical.Search
			if rep.CacheOutcome == "revalidate-reject" {
				reg.Counter("plancache.revalidate_reject").Add(1)
			}
			reg.Counter("units.count").Add(int64(len(rep.UnitCells)))
			cellsHist := reg.Histogram("units.cells", unitCellsBuckets)
			for _, cells := range rep.UnitCells {
				cellsHist.Observe(float64(cells))
			}
			reg.Counter("plan.ilp.nodes_explored").Add(search.ILPNodes)
			reg.Counter("plan.ilp.nodes_pruned").Add(search.ILPPruned)
			reg.Counter("plan.tabu.rounds").Add(int64(search.TabuRounds))
			reg.Counter("plan.tabu.moves").Add(int64(search.TabuMoves))
			reg.Counter("plan.tabu.whatifs").Add(search.TabuWhatIfs)

		case Align{}.Name():
			align := &rep.Align
			reg.Counter("align.transfers").Add(int64(len(align.Timeline)))
			reg.Counter("align.cells_moved").Add(rep.CellsMoved)
			reg.Counter("align.lock_waits").Add(int64(align.LockWaits))
			reg.Counter("align.skipped_sends").Add(int64(align.SkippedSends))
			reg.Gauge("align.lock_wait_seconds").Add(align.LockWaitTime)
			reg.Gauge("align.makespan_seconds").Add(align.Makespan)

		case Compare{}.Name():
			align := &rep.Align
			reg.Gauge("compare.skew").Set(rep.Skew)
			reg.Gauge("compare.straggler_node").Set(float64(rep.StragglerNode))
			reg.Counter("compare.matches").Add(rep.Matches)
			names := nodeMetricNames(len(rep.Nodes))
			for node, nl := range rep.Nodes {
				nm := &names[node]
				reg.Counter(nm.assigned).Add(nl.AssignedCells)
				reg.Gauge(nm.send).Add(align.SendBusy[node])
				reg.Gauge(nm.recv).Add(align.RecvBusy[node])
				reg.Gauge(nm.lockWait).Add(align.RecvLockWait[node])
				reg.Gauge(nm.compare).Add(rep.NodeCompareTime[node])
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
	// Parallelism setting.
	reg.Histogram("pipeline.modeled_seconds", modeledSecondsBuckets).Observe(rep.AlignTime + rep.CompareTime)
}

// The folded histograms' bucket bounds, built once rather than per query.
var (
	unitCellsBuckets      = obs.PowersOf2Buckets(2, 16)
	modeledSecondsBuckets = obs.PowersOf2Buckets(1, 12)
)

// nodeNames are one node's metric names. nodeNameTable makes them once
// per node, node-indexed, and only grows, so a slice of it stays valid
// after the lock is released.
type nodeNames struct{ assigned, send, recv, lockWait, compare string }

var nodeNameTable struct {
	sync.Mutex
	names []nodeNames
}

// nodeMetricNames returns the metric names of nodes 0..k-1.
func nodeMetricNames(k int) []nodeNames {
	t := &nodeNameTable
	t.Lock()
	defer t.Unlock()
	for node := len(t.names); node < k; node++ {
		p := fmt.Sprintf("node%02d.", node)
		t.names = append(t.names, nodeNames{p + "assigned_cells", p + "send_seconds",
			p + "recv_seconds", p + "lock_wait_seconds", p + "compare_seconds"})
	}
	return t.names[:k]
}

// Chrome trace-event export (the "Trace Event Format" consumed by
// Perfetto and chrome://tracing). The simulated cluster maps onto the
// format as:
//
//   - pid 0     the coordinator: one root event, each query's planning
//     stages in wall-clock microseconds since the first Report's Start,
//     and its align and compare phases in simulated microseconds
//   - pid 1+n   simulated node n: its compare span on the "execute"
//     thread, and each transfer as one complete ("X") event on the
//     sender's "send" thread and one on the receiver's "recv" thread,
//     joined by a flow-event pair ("s"/"f") so Perfetto draws the arrow
//
// Attribute keys containing "wall" carry wall-clock values.

// chromeEvent is one trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	tidMain = 0
	tidSend = 1
	tidRecv = 2
)

// WriteChrome renders the Reports, in order, as one Chrome trace-event
// JSON document under a root event with the given name.
func WriteChrome(w io.Writer, name string, reps ...*Report) error {
	var events []chromeEvent
	maxNode := -1
	node := func(n int) int {
		maxNode = max(maxNode, n)
		return 1 + n
	}
	span := func(name string, pid, tid int, start, end float64, args map[string]any) chromeEvent {
		dur := (end - start) * 1e6
		return chromeEvent{Name: name, Ph: "X", Pid: pid, Tid: tid, Ts: start * 1e6, Dur: &dur, Args: args}
	}
	events = append(events, span(name, 0, tidMain, 0, 0, nil))

	var epoch time.Time
	if len(reps) > 0 {
		epoch = reps[0].Start
	}
	flowID := 0
	for _, rep := range reps {
		at := rep.Start.Sub(epoch)
		for _, st := range rep.Stages {
			start := at.Seconds()
			at += time.Duration(st.WallSeconds * float64(time.Second))
			if !st.Done {
				continue
			}
			wall := func(name string, args map[string]any) {
				events = append(events, span(name, 0, tidMain, start, start+st.WallSeconds, args))
			}
			switch st.Stage {
			case LogicalPlan{}.Name():
				switch rep.CacheOutcome {
				case "hit", "revalidate-reject":
					continue // the plan was replayed from the cache, not made
				}
				wall("plan.logical", map[string]any{
					"candidates":  float64(len(rep.Candidates)),
					"selectivity": rep.Selectivity,
					"best":        rep.Candidates[0].Describe(),
				})

			case SliceMap{}.Name():
				wall("map.slices", map[string]any{
					"peak_batch_bytes": float64(rep.PeakBatchBytes),
					"interned_strings": float64(rep.InternedStrings),
					"units":            float64(rep.Logical.NumUnits),
				})

			case PhysicalPlan{}.Name():
				pres := &rep.Physical
				args := map[string]any{
					"planner":     pres.Planner,
					"model_cost":  pres.Model.Total,
					"cells_moved": float64(rep.CellsMoved),
				}
				if s := pres.Search; s.ILPTasks > 0 {
					optimal := 0.0
					if pres.Optimal {
						optimal = 1
					}
					args["ilp.tasks"] = float64(s.ILPTasks)
					args["ilp.nodes_explored"] = float64(s.ILPNodes)
					args["ilp.nodes_pruned"] = float64(s.ILPPruned)
					args["ilp.seed_cost"] = s.SeedCost
					args["ilp.objective"] = pres.Model.Total
					args["ilp.optimal"] = optimal
					args["ilp.solve_wall_seconds"] = rep.PlanTime
				}
				if s := pres.Search; s.TabuRounds > 0 {
					args["tabu.rounds"] = float64(s.TabuRounds)
					args["tabu.moves"] = float64(s.TabuMoves)
					args["tabu.whatifs"] = float64(s.TabuWhatIfs)
				}
				wall("plan.physical", args)

			case Align{}.Name():
				align := &rep.Align
				events = append(events, span("align", 0, tidMain, 0, align.Makespan, map[string]any{
					"transfers":         float64(len(align.Timeline)),
					"lock_waits":        float64(align.LockWaits),
					"skipped_sends":     float64(align.SkippedSends),
					"lock_wait_seconds": align.LockWaitTime,
				}))
				for _, ev := range align.Timeline {
					from, to := node(ev.From), node(ev.To)
					args := map[string]any{
						"transfer": 1.0,
						"from":     float64(ev.From),
						"to":       float64(ev.To),
						"unit":     float64(ev.Tag),
						"cells":    float64(ev.Cells),
					}
					flowID++
					events = append(events,
						span("xfer", from, tidSend, ev.Start, ev.End, args),
						span("xfer", to, tidRecv, ev.Start, ev.End, args),
						chromeEvent{Name: "xfer", Ph: "s", Pid: from, Tid: tidSend, Ts: ev.Start * 1e6, ID: flowID},
						chromeEvent{Name: "xfer", Ph: "f", BP: "e", Pid: to, Tid: tidRecv, Ts: ev.End * 1e6, ID: flowID},
					)
				}

			case Compare{}.Name():
				t0 := rep.Align.Makespan
				events = append(events, span("compare", 0, tidMain, t0, t0+rep.CompareTime, map[string]any{
					"skew":           rep.Skew,
					"straggler_node": float64(rep.StragglerNode),
				}))
				for n, nl := range rep.Nodes {
					events = append(events, span("compare.node", node(n), tidMain, t0, t0+rep.NodeCompareTime[n], map[string]any{
						"units":        float64(nl.Units),
						"output_cells": float64(nl.OutputCells),
					}))
				}
			}
		}
	}

	meta := func(pid, tid int, key, name string) chromeEvent {
		return chromeEvent{Name: key, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
	}
	all := []chromeEvent{meta(0, tidMain, "process_name", "coordinator (wall clock)")}
	for n := 0; n <= maxNode; n++ {
		all = append(all,
			meta(1+n, tidMain, "process_name", "node "+strconv.Itoa(n)+" (simulated)"),
			meta(1+n, tidMain, "thread_name", "execute"),
			meta(1+n, tidSend, "thread_name", "send"),
			meta(1+n, tidRecv, "thread_name", "recv"),
		)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{append(all, events...), "ms"})
}
