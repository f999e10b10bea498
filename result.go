package shufflejoin

import (
	"fmt"
	"io"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// algoByName maps user-facing algorithm names.
func algoByName(name string) (join.Algorithm, error) {
	switch name {
	case "hash":
		return join.Hash, nil
	case "merge":
		return join.Merge, nil
	case "nestedloop", "nested-loop", "nl":
		return join.NestedLoop, nil
	}
	return 0, fmt.Errorf("shufflejoin: unknown algorithm %q", name)
}

// Result is the outcome of a query: the chosen plans, the phase timing
// breakdown, and the materialized output cells. Queries execute through
// the staged pipeline engine (LogicalPlan → SliceMap → PhysicalPlan →
// Align → Compare → Assemble; see internal/pipeline); each field's
// comment names the stage its value comes from.
type Result struct {
	// Plan is the logical plan as an AFL expression, e.g.
	// "redim(hashJoin(hash(A), hash(B)), C)" (LogicalPlan stage).
	Plan string
	// Algorithm is the cell-comparison algorithm used (LogicalPlan stage).
	Algorithm string
	// Planner names the physical planner that assigned join units
	// (PhysicalPlan stage).
	Planner string
	// PlanSource records where the physical assignment came from:
	// "cached" (plan-cache hit, revalidated against current statistics),
	// "greedy" (the WithGreedyPlanning planner kept its own plan; Planner
	// is then "Greedy"), or "full" (any other planner, including the one
	// a greedy query fell back to). Empty for multi-way queries
	// (PhysicalPlan stage).
	PlanSource string
	// PlanRegret is the greedy plan's predicted regret against the
	// analytic cost lower bound when WithGreedyPlanning planned; zero
	// otherwise (PhysicalPlan stage).
	PlanRegret float64
	// Matches is the number of matched cell pairs (= output cells)
	// (Compare stage).
	Matches int64
	// CellsMoved is the number of cells shipped during data alignment
	// (PhysicalPlan stage).
	CellsMoved int64
	// ClampedCells counts output cells whose coordinates fell outside the
	// destination's dimension ranges and were clamped onto the boundary.
	// Non-zero values signal a lossy store; WithStrict turns them
	// into errors instead (Assemble stage).
	ClampedCells int64
	// PeakBatchBytes is the high-water mark of mapped batch storage on the
	// data plane — the query's working-set bound, deterministic across
	// Parallelism settings. Multi-way queries report the largest per-step
	// peak (SliceMap stage).
	PeakBatchBytes int64
	// InternedStrings is the number of distinct strings in the query's
	// dictionary; string cells carry 4-byte codes through the shuffle
	// instead of copies (Align stage; summed across multi-way steps).
	InternedStrings int64
	// MemoryOverflowBytes is how far PeakBatchBytes exceeded the budget
	// set with WithMemoryBudget — zero when no budget was set or the query
	// fit. WithStrict turns overflow into an error instead (SliceMap
	// stage; summed across multi-way steps).
	MemoryOverflowBytes int64

	// Modeled phase durations in seconds, as in the paper's figures:
	// planning is real wall time (PhysicalPlan stage); alignment is the
	// simulated shuffle makespan (Align stage); comparison is the slowest
	// node's modeled time (Compare stage).
	PlanSeconds    float64
	AlignSeconds   float64
	CompareSeconds float64
	TotalSeconds   float64

	// Skew is the comparison phase's straggler ratio: the slowest node's
	// modeled compare time over the mean (1 = perfectly balanced, 0 when
	// no compare work exists). Multi-way queries report the ratio over
	// per-node times summed across steps (Compare stage).
	Skew float64
	// StragglerNode is the node with the largest modeled compare time
	// (lowest id on ties), or -1 when no compare work exists (Compare
	// stage).
	StragglerNode int
	// LockWaitSeconds is the total simulated time senders spent stalled on
	// receiver write locks during data alignment — shuffle congestion
	// (Align stage).
	LockWaitSeconds float64

	// OutputSchema is the destination schema literal.
	OutputSchema string

	// JoinOrder lists a multi-way query's steps in execution order, each
	// with the estimate that chose it (empty for two-way joins).
	JoinOrder []JoinOrderStep

	output *array.Array
	// reports are what every telemetry view renders from: one Report per
	// step in execution order, a two-way query's only.
	reports []*pipeline.Report
}

// Profiles returns the query's EXPLAIN ANALYZE digests, one per step in
// execution order (a two-way query has one): per-stage timings, plan
// provenance, candidate costs and planner search, shuffle totals, and
// per-node skew diagnostics, rendered from the step's Report on each
// call.
func (r *Result) Profiles() []*Profile {
	out := make([]*Profile, len(r.reports))
	for i, rep := range r.reports {
		out[i] = rep.Profile()
	}
	return out
}

// newResult builds a query's Result from its step Reports, one for a
// two-way query: counts and modeled times summed over the steps, the
// largest batch peak and the last step's output. Every earlier step
// drops its Output so the Result does not hold the intermediates alive.
func newResult(steps []*pipeline.Report, order []JoinOrderStep) *Result {
	last := steps[len(steps)-1]
	r := &Result{
		Planner:      steps[0].Physical.Planner,
		Matches:      last.Matches,
		OutputSchema: last.Output.Schema.String(),
		JoinOrder:    order,
		output:       last.Output,
		reports:      steps,
	}
	if len(order) == 0 {
		r.Plan, r.Algorithm = last.Logical.Describe(), last.Logical.Algo.String()
		r.PlanSource, r.PlanRegret = last.PlanSource, last.PlanRegret
	} else {
		names := make([]string, len(order))
		for i, s := range order {
			names[i] = s.Left + " ⋈ " + s.Right
		}
		r.Plan, r.Algorithm = strings.Join(names, " ; "), "multi"
	}
	for _, step := range steps {
		r.CellsMoved += step.CellsMoved
		r.ClampedCells += step.ClampedCells
		r.PeakBatchBytes = max(r.PeakBatchBytes, step.PeakBatchBytes)
		r.InternedStrings += step.InternedStrings
		r.MemoryOverflowBytes += step.MemoryOverflowBytes
		r.PlanSeconds += step.PlanTime
		r.AlignSeconds += step.AlignTime
		r.CompareSeconds += step.CompareTime
		r.LockWaitSeconds += step.LockWaitSeconds
	}
	for _, step := range steps[:len(steps)-1] {
		step.Output = nil
	}
	r.TotalSeconds = r.PlanSeconds + r.AlignSeconds + r.CompareSeconds
	nodeCompare := last.NodeCompareTime
	if len(steps) > 1 { // per node, summed over the steps
		nodeCompare = make([]float64, len(last.NodeCompareTime))
		for _, step := range steps {
			for n, v := range step.NodeCompareTime {
				nodeCompare[n] += v
			}
		}
	}
	r.Skew, r.StragglerNode = pipeline.SkewOf(nodeCompare)
	return r
}

// Cell is one output cell: coordinates and attribute values (int64,
// float64, or string).
type Cell struct {
	Coords []int64
	Values []any
}

// Cells materializes the full output in deterministic order. Intended for
// small results; use Scan for large ones.
func (r *Result) Cells() []Cell {
	var out []Cell
	r.Scan(func(c Cell) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Scan streams output cells in deterministic (chunk C-order) order;
// returning false stops the scan.
func (r *Result) Scan(fn func(Cell) bool) {
	r.output.Scan(func(coords []int64, attrs []array.Value) bool {
		c := Cell{Coords: append([]int64(nil), coords...)}
		c.Values = make([]any, len(attrs))
		for i, v := range attrs {
			switch v.Kind {
			case array.TypeInt64:
				c.Values[i] = v.Int
			case array.TypeFloat64:
				c.Values[i] = v.F
			default:
				c.Values[i] = v.Str
			}
		}
		return fn(c)
	})
}

// String summarizes the result for logging.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d matches via %s [%s planner]", r.Matches, r.Plan, r.Planner)
	if r.PlanSource != "" {
		fmt.Fprintf(&b, " plan_source=%s", r.PlanSource)
		if r.PlanRegret > 0 {
			fmt.Fprintf(&b, " regret=%.3f", r.PlanRegret)
		}
	}
	fmt.Fprintf(&b, " plan=%.3fs align=%.3fs compare=%.3fs total=%.3fs moved=%d cells",
		r.PlanSeconds, r.AlignSeconds, r.CompareSeconds, r.TotalSeconds, r.CellsMoved)
	if r.ClampedCells > 0 {
		fmt.Fprintf(&b, " clamped=%d cells", r.ClampedCells)
	}
	return b.String()
}

// ChromeTrace writes the query's trace in Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing: one process per
// simulated node, transfers drawn as flow arrows between sender and
// receiver threads. It is rendered from the query's Report on each call;
// a multi-way query renders its steps in order.
func (r *Result) ChromeTrace(w io.Writer) error {
	return pipeline.WriteChrome(w, "query", r.reports...)
}

// PlanInfo is one candidate logical plan in an Explain result: the row a
// Profile lists its candidates in, with Chosen unset.
type PlanInfo = pipeline.PlanCandidate

// Explanation is the optimizer's view of a query: the selectivity estimate
// it used and every valid logical plan, cheapest first.
type Explanation struct {
	Selectivity float64
	Plans       []PlanInfo
}

// SaveAs registers the query output as a new array in the database so
// follow-up queries can join against it (materialized query chaining).
func (r *Result) SaveAs(db *DB, name string) (*Array, error) {
	if name == "" {
		return nil, fmt.Errorf("shufflejoin: SaveAs needs a name")
	}
	out := r.output.Clone()
	out.Schema.Name = name
	ar := &Array{db: db, inner: out}
	ar.Seal()
	return ar, nil
}
