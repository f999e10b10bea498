package pipeline

import (
	"context"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/par"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/simnet"
)

// Options configures a shuffle join run.
type Options struct {
	// Planner assigns join units to nodes; defaults to the Minimum
	// Bandwidth Heuristic.
	Planner physical.Planner
	// Selectivity is the caller's output-cardinality estimate for the
	// logical planner (logical.PlanOptions.Selectivity). Zero derives one
	// from catalog statistics.
	Selectivity float64
	// Scheduling selects the shuffle scheduler (default: greedy locks).
	Scheduling simnet.Scheduling
	// ForceAlgo restricts the logical planner to one join algorithm,
	// used by experiments that compare algorithms directly.
	ForceAlgo *join.Algorithm
	// Parallelism is the worker count for the execution hot paths (slice
	// mapping and join-unit cell comparison): 0 means one worker per CPU
	// (the default — parallel execution is on unless disabled), 1 forces
	// sequential execution, and n > 1 uses n workers. Output, join stats,
	// and modeled times are bit-for-bit identical at every setting.
	Parallelism int
	// MemoryBudget caps the bytes of mapped batch storage the query may
	// hold in flight (8 bytes per stored coordinate and value; string
	// contents live in the per-query intern dictionary). 0 means
	// unlimited, unless a Gate grants a reservation. By default overflow
	// is counted, not fatal:
	// Report.MemoryOverflowBytes records how far the peak exceeded the
	// budget, mirroring the ClampedCells pattern.
	MemoryBudget int64
	// Strict is the overflow policy: what the query does when data does
	// not fit what was declared for it. Off, both overflows are counted
	// (Report.ClampedCells, Report.MemoryOverflowBytes). On, an output
	// cell outside the destination's dimension ranges fails Assemble with
	// an error wrapping ErrBounds instead of being clamped onto the
	// boundary (clamped cells can collide and overwrite each other), and a
	// MemoryBudget violation fails SliceMap with an error wrapping
	// batch.ErrBudget.
	Strict bool
	// Select, when non-nil, computes the destination's attributes, one
	// Expr per attribute in order, instead of mapping them by name: an
	// AQL SELECT list (aql.Parse builds it). LogicalPlan checks every
	// column it names and carries every attribute it reads through the
	// shuffle.
	Select []Expr
	// Cache, when non-nil, short-circuits planning for repeated queries:
	// before planning, the query's signature (schema shape, chunk grid,
	// skew-histogram fingerprint, node count, planning options) is looked
	// up, and a hit replays the stored logical plan and physical
	// assignment after a cheap revalidation against the current slice
	// statistics (plancache.Revalidate). Misses and revalidation rejects
	// plan normally and store the outcome. The cache is safe to share
	// across concurrent queries. Explain never consults it.
	Cache *plancache.Cache
	// Hooks, when non-nil, observes the query's lifecycle: QueryStarted
	// receives a live Progress tracker before the first stage, and
	// QueryFinished the final Report after the last. The obshttp Hub
	// implements this to serve /debug/inflight and the /debug/queries log.
	Hooks QueryHooks
	// QueryLabel identifies the query in profiles, progress trackers, and
	// query logs (typically the AQL text or an experiment label).
	QueryLabel string
	// Ctx, when non-nil, threads cancellation and deadlines through the
	// query: Execute checks it between stages, and the Compare stage
	// checks it before each join unit, so a canceled query stops within
	// one stage/unit boundary and its error reports context.Canceled or
	// context.DeadlineExceeded (wrapped, errors.Is-matchable). Nil means
	// context.Background() — no cancellation.
	Ctx context.Context
	// Gate, when non-nil, is the query's admission grant. SliceMap runs
	// an unbudgeted query (MemoryBudget 0) under the grant's memory
	// reservation. A sched.Ticket satisfies this interface.
	Gate Gate
}

// Gate is a query's admission grant from a scheduler.
type Gate interface {
	// MemoryBytes is the batch-memory reservation admission carved for
	// the query (0 when the scheduler has no memory pool).
	MemoryBytes() int64
}

// ctx resolves the query's context (Background when none was supplied).
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// workers resolves the Parallelism knob to an effective worker count.
func (o *Options) workers() int { return par.Workers(o.Parallelism) }

// params are the cost-model constants m, b, p, t every stage prices
// with (and Redistribute shuffles and sorts by).
var params = physical.DefaultParams()

// normalize fills the planning defaults stages rely on. It must run
// before any cache-signature computation so that explicit and defaulted
// options sign identically.
func (o *Options) normalize() {
	if o.Planner == nil {
		o.Planner = physical.MinBandwidthPlanner{}
	}
}

// Report is the outcome of one shuffle join: the chosen plans, the modeled
// phase durations (seconds), and the materialized output. Each field's
// comment names the pipeline stage that populates it.
type Report struct {
	// Query is the caller's label for the query, Options.QueryLabel
	// (Execute).
	Query string
	// Logical is the chosen logical plan (LogicalPlan stage).
	Logical logical.Plan
	// Candidates is every plan the logical planner considered, cheapest
	// first: the full enumeration, or the single replayed plan of a cached
	// query (LogicalPlan stage).
	Candidates []logical.Plan
	// Physical is the join-unit-to-node assignment and its modeled cost
	// breakdown (PhysicalPlan stage).
	Physical physical.Result

	// Selectivity is the output-cardinality estimate the logical planner
	// used — the caller's, or the catalog-statistics estimate when the
	// caller supplied none (LogicalPlan stage).
	Selectivity float64

	// PlanSource records where the physical assignment came from:
	// "cached" (signature hit, revalidated), "greedy"
	// (physical.GreedyPlanner kept its own plan), or "full" (any other
	// planner, including the greedy planner's fallback) (PhysicalPlan
	// stage).
	PlanSource string
	// PlanRegret is the greedy plan's predicted regret against the
	// analytic lower bound when physical.GreedyPlanner planned; zero
	// otherwise (PhysicalPlan stage).
	PlanRegret float64
	// CacheOutcome records the plan cache's verdict for this query:
	// "hit", "miss", or "revalidate-reject" (a signature hit whose stored
	// assignment failed revalidation against fresh statistics). Empty
	// when no cache was attached (LogicalPlan/PhysicalPlan stages).
	CacheOutcome string

	// Stages is the stage log, in execution order: wall seconds
	// (nondeterministic) and the simulated seconds each stage contributed
	// to the modeled makespan (deterministic; the align and compare
	// stages' entries sum to AlignTime + CompareTime). Execute opens an
	// entry when a stage starts and closes it when the stage returns, for
	// every query.
	Stages []StageTiming

	// Modeled phase durations in seconds, mirroring the paper's figures:
	// PlanTime is real planning wall-time (PhysicalPlan stage); AlignTime
	// is the simulated shuffle makespan (Align stage); CompareTime is the
	// slowest node's modeled cell comparison, including post-join output
	// sorting when the plan calls for it (Compare stage); Total is their
	// sum (Assemble stage).
	PlanTime    float64
	AlignTime   float64
	CompareTime float64
	Total       float64

	// Align is the full shuffle simulation result (Align stage).
	Align simnet.Result
	// JoinStats aggregates the join algorithm's comparison/match counters
	// over all join units (Compare stage).
	JoinStats join.Stats
	// Matches is JoinStats.Matches (Compare stage).
	Matches int64
	// CellsMoved is the network traffic of the chosen physical plan
	// (PhysicalPlan stage).
	CellsMoved int64

	// NodeCompareTime is each node's modeled comparison seconds under the
	// physical plan; CompareTime is its maximum (Compare stage).
	NodeCompareTime []float64
	// Nodes is each node's share of the plan: the join units and input
	// cells assigned to it (PhysicalPlan stage) and the output cells it
	// emitted (Compare stage).
	Nodes []NodeLoad
	// UnitCells is the per-join-unit cell total (both sides) the physical
	// planner assigned work by — the raw material of hot-unit skew
	// diagnostics (PhysicalPlan stage).
	UnitCells []int64
	// Skew is the straggler ratio of the comparison phase: the slowest
	// node's modeled compare time over the mean (1 = perfectly balanced,
	// 0 when no compare work exists) (Compare stage).
	Skew float64
	// StragglerNode is the node with the largest modeled compare time
	// (lowest id on ties), or -1 when no compare work exists (Compare
	// stage).
	StragglerNode int
	// LockWaitSeconds is the total simulated time senders spent stalled on
	// receiver write locks during data alignment — the shuffle-congestion
	// half of the skew picture (Align stage).
	LockWaitSeconds float64

	// PeakBatchBytes is the high-water mark of mapped batch storage the
	// query held in flight (both sides; 8 bytes per stored coordinate
	// and value). Because each side is charged once while slice mapping
	// runs and the bytes only drain as comparison retires join units, the
	// peak equals the total mapped bytes and is deterministic at every
	// Parallelism setting (SliceMap stage).
	PeakBatchBytes int64
	// InternedStrings is the number of distinct string values the
	// query's intern dictionary holds once both sides are placed; zero
	// when no string attributes flowed (Align stage).
	InternedStrings int64
	// MemoryOverflowBytes is how far PeakBatchBytes exceeded the memory
	// budget (Options.MemoryBudget, or the Gate's grant) — the
	// counted-mode analogue of ClampedCells.
	// Zero when within budget or unbudgeted (SliceMap stage).
	MemoryOverflowBytes int64

	// ClampedCells counts output cells whose coordinates fell outside the
	// destination's dimension ranges and were clamped onto the boundary.
	// Clamped cells can collide with real cells and overwrite them, so a
	// nonzero count is a data-fidelity warning (or an error under
	// Options.Strict) (Assemble stage).
	ClampedCells int64
	// Output is the materialized, sorted destination array (Assemble
	// stage).
	Output *array.Array
	// Start is when the query began, the origin the Chrome trace places
	// wall-clock stage spans from; like WallTime it is outside every
	// fingerprint (Execute).
	Start time.Time
	// WallTime is the real elapsed time of the whole pipeline, set on
	// every exit — success, error or panic (Execute).
	WallTime time.Duration
}

// NodeLoad is one node's row of Report.Nodes.
type NodeLoad struct {
	Units         int
	AssignedCells int64
	OutputCells   int64
}
