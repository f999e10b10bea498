// Package pipeline is the staged query-execution engine of the shuffle
// join (Sections 3.3–3.4 of the paper). A query runs as an explicit
// sequence of stages —
//
//	LogicalPlan → SliceMap → PhysicalPlan → Align → Compare → Assemble
//
// — threading one QueryContext that carries the cluster, the options, the
// observability trace, and every intermediate product from stage to
// stage. The AQL runner, the public facade, and both CLIs all execute
// through Run / RunDistributed here. There is one data plane (bounded
// columnar batch runs, pulled through pooled readers) and one execution
// order (overlapped, below); Execute takes the stage list, and that seam
// is where the tests substitute their barrier-order, whole-unit
// reference executor (reference_test.go).
//
// # Overlapped execution
//
// The engine overlaps data alignment with cell comparison at join-unit
// granularity: the Align stage subscribes to the network simulator's
// per-transfer completion events (simnet.Config.OnComplete) and
// dispatches a unit's comparison the moment its last inbound slice lands
// — the paper's per-receiver write-lock model makes that point well
// defined — instead of waiting for a global alignment barrier. Units
// whose slices are already local are dispatched before the simulation
// even starts.
//
// Overlap is a wall-clock optimization only; the modeled timeline is
// unchanged (compare time is still stacked after the align makespan, as
// in the paper's cost model). Output cells, modeled times, and trace
// fingerprints are bit-for-bit identical at every Parallelism setting —
// and output cells, join statistics, and modeled times match the tests'
// barrier-order reference — because
//
//  1. transfer completion order is deterministic in the discrete-event
//     loop,
//  2. each unit's results land in a pre-allocated per-unit slot, and
//  3. all merging — cells, join stats, modeled seconds, synthetic row
//     numbering — happens on the orchestration goroutine in a fixed
//     order: node ascending, unit assignment order, emit order.
//
// See DESIGN.md §7 for the full determinism argument.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/simnet"
)

// Stage is one phase of query execution. Stages run strictly in order on
// the orchestration goroutine; a stage reads its inputs from the
// QueryContext and writes its products back into it (and into
// QueryContext.Report). A stage may use worker goroutines internally but
// must merge their results deterministically before returning, and must
// record spans and metrics only from the orchestration goroutine.
type Stage interface {
	Name() string
	Run(qc *QueryContext) error
}

// DefaultStages returns the standard execution pipeline in order.
func DefaultStages() []Stage {
	return []Stage{LogicalPlan{}, SliceMap{}, PhysicalPlan{}, Align{}, Compare{}, Assemble{}}
}

// QueryContext is the shared state one query threads through its stages:
// the immutable query inputs (cluster, sources, predicate, destination,
// options) plus each stage's products. The observability trace rides in
// Opt.Trace; stages retire spans into it as they finish, so a registered
// obs.SpanSink sees the query's progress incrementally.
type QueryContext struct {
	Cluster     *cluster.Cluster
	Left, Right *cluster.Distributed
	Pred        join.Predicate
	Out         *array.Schema // destination schema τ (may be nil / dimension-less)
	Opt         *Options
	Report      *Report

	wallStart   time.Time
	explainOnly bool            // LogicalPlan stage: enumerate but do not select
	ctx         context.Context // resolved Opt.Ctx; checked between stages and per unit

	// Flight-recorder attachment (Execute; nil when recording is off).
	// Events are telemetry only: stages record decisions into fr but
	// never read it back, so recorded and unrecorded runs are
	// bit-for-bit identical.
	fr  *flight.Recorder
	qid uint32

	// Plan-cache state (LogicalPlan stage, only when Opt.Cache is set).
	sig      plancache.Signature // this query's cache signature
	cached   *plancache.Entry    // hit awaiting revalidation in PhysicalPlan
	planning *plancache.Planning // singleflight token; Finished after Store or on error

	// Gate state (Align/Compare stages, only when Opt.Gate is set).
	compareSlot bool // holding the gate's compare slot

	// Stage products, in the order they are produced.
	plans     []logical.Plan    // LogicalPlan: every valid plan, cheapest first
	plan      *logical.Plan     // LogicalPlan: the chosen plan
	spec      *shuffle.UnitSpec // SliceMap: join-unit geometry
	rsl, rsr  *shuffle.RunSet   // SliceMap: per-side batch runs
	budget    *batch.Budget     // SliceMap: per-query memory accountant
	prob      *physical.Problem // PhysicalPlan: cost-model problem instance
	nodeUnits [][]int           // PhysicalPlan: units assigned to each node
	transfers []simnet.Transfer // Align: the shuffle's network transfers
	outArr    *array.Array      // Align: destination array (built pre-shuffle)
	proj      *projector        // Align: output-cell projector
	runner    *compareRunner    // Align: overlapped per-unit compare dispatcher
	nodes     []nodeOut         // Compare: merged per-node compare products
}

// NewQueryContext prepares a context for one join execution. opt is
// copied; stages normalize it in place.
func NewQueryContext(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) *QueryContext {
	o := opt
	return &QueryContext{
		Cluster:   c,
		Left:      dl,
		Right:     dr,
		Pred:      pred,
		Out:       out,
		Opt:       &o,
		Report:    &Report{},
		wallStart: time.Now(),
		ctx:       o.ctx(),
	}
}

// releaseCompareSlot returns the gate's compare slot if this query holds
// one; safe to call repeatedly.
func (qc *QueryContext) releaseCompareSlot() {
	if qc.compareSlot {
		qc.compareSlot = false
		qc.Opt.Gate.ReleaseCompare()
	}
}

// Execute runs the stages in order, stopping at the first error. Around
// the stages it maintains the query's observability surface: per-stage
// timings into Report.Stages (wall seconds plus the deterministic
// simulated seconds each stage added to the modeled makespan), a live
// Progress tracker delivered to Options.Hooks, and — when profiling is
// enabled — the EXPLAIN ANALYZE Profile assembled into Report.Profile
// after the last stage.
func Execute(qc *QueryContext, stages []Stage) error {
	opt := qc.Opt
	qc.fr = opt.flightRecorder()
	qc.qid = qc.fr.NextQID()
	pm := opt.postmortem()
	var prog *Progress
	if opt.Hooks != nil {
		prog = newProgress(opt.QueryLabel)
		opt.Hooks.QueryStarted(prog)
	}
	qc.fr.Record(flight.EvQueryStart, qc.qid, qc.fr.Label(opt.QueryLabel), 0, 0, 0)
	var stageName string
	defer func() {
		if r := recover(); r != nil {
			// A panicking stage still ships its own investigation: dump
			// the flight trail and whatever the query had produced, then
			// let the panic continue to the caller.
			qc.fr.Record(flight.EvPostmortem, qc.qid, qc.fr.Label("panic"), 0, 0, 0)
			capturePostmortem(pm, "panic", qc, prog, map[string]any{
				"panic": fmt.Sprint(r),
				"stage": stageName,
				"stack": string(debug.Stack()),
			})
			panic(r)
		}
	}()
	var execErr error
	for _, st := range stages {
		// Honor cancellation at every stage boundary (including before
		// the first stage, so a pre-canceled query never plans).
		if err := qc.ctx.Err(); err != nil {
			execErr = err
			break
		}
		start := time.Now()
		stageName = st.Name()
		prog.stageStarted(stageName)
		qc.fr.Record(flight.EvStageStart, qc.qid, qc.fr.Label(stageName), 0, 0, 0)
		alignBefore, compareBefore := qc.Report.AlignTime, qc.Report.CompareTime
		err := st.Run(qc)
		wall := time.Since(start)
		sim := (qc.Report.AlignTime - alignBefore) + (qc.Report.CompareTime - compareBefore)
		qc.Report.Stages = append(qc.Report.Stages, StageTiming{
			Stage:       stageName,
			WallSeconds: wall.Seconds(),
			SimSeconds:  sim,
		})
		qc.fr.Record(flight.EvStageFinish, qc.qid, qc.fr.Label(stageName), int64(wall), flight.F(sim), 0)
		prog.stageFinished(wall)
		if err != nil {
			execErr = err
			break
		}
	}
	// Error exits can leave gate or singleflight state held mid-stage;
	// release both so neither a compare slot nor concurrent planners for
	// this signature stay blocked. Both are no-ops on the success path
	// (stages release the slot and Finish after Store themselves).
	if opt.Gate != nil {
		qc.releaseCompareSlot()
	}
	qc.planning.Finish()
	if execErr == nil && (opt.Profile || opt.Hooks != nil) {
		qc.Report.Profile = buildProfile(qc)
	}
	if tr := opt.Trace; tr.Enabled() {
		reg := tr.Metrics()
		reg.Counter("pipeline.query_count").Add(1)
		if execErr != nil {
			reg.Counter("pipeline.query_errors").Add(1)
		} else {
			// Align+compare, not Report.Total: Total folds in real
			// planning wall-time, and the histogram must stay
			// bit-identical at every Parallelism setting (trace
			// fingerprints hash it exactly).
			reg.Histogram("pipeline.modeled_seconds", obs.PowersOf2Buckets(1, 12)).Observe(qc.Report.AlignTime + qc.Report.CompareTime)
		}
	}
	wall := time.Since(qc.wallStart)
	if execErr != nil {
		qc.fr.Record(flight.EvQueryError, qc.qid, qc.fr.Label(stageName), qc.fr.Label(execErr.Error()), 0, 0)
		canceled := errors.Is(execErr, context.Canceled) || errors.Is(execErr, context.DeadlineExceeded)
		if !canceled {
			// Cancellation and timeouts are the caller's decision, not an
			// engine failure — no diagnostic bundle for those.
			reason := "query-error"
			switch {
			case errors.Is(execErr, batch.ErrBudget):
				reason = "strict-budget"
			case errors.Is(execErr, ErrBounds):
				reason = "strict-bounds"
			}
			qc.fr.Record(flight.EvPostmortem, qc.qid, qc.fr.Label(reason), 0, 0, 0)
			capturePostmortem(pm, reason, qc, prog, map[string]any{
				"error": execErr.Error(),
				"stage": stageName,
			})
		}
	} else {
		qc.fr.Record(flight.EvQueryFinish, qc.qid, qc.Report.Matches,
			flight.F(qc.Report.AlignTime+qc.Report.CompareTime), int64(wall), 0)
		if pm != nil && pm.SlowQuery > 0 && wall >= pm.SlowQuery {
			qc.fr.Record(flight.EvPostmortem, qc.qid, qc.fr.Label("slow-query"), 0, 0, 0)
			capturePostmortem(pm, "slow-query", qc, prog, map[string]any{
				"wall":      wall.String(),
				"threshold": pm.SlowQuery.String(),
			})
		}
	}
	if prog != nil {
		prog.finish(execErr != nil)
		opt.Hooks.QueryFinished(prog, qc.Report, execErr)
	}
	return execErr
}

// capturePostmortem assembles a bundle's evidence sections from the
// query's current state and writes it through pm. Capture errors are
// swallowed: a failing diagnostic dump must never mask the query's own
// outcome (and the bundle cap makes over-capture routine, not
// exceptional).
func capturePostmortem(pm *flight.Postmortem, reason string, qc *QueryContext, prog *Progress, failure map[string]any) {
	if pm == nil {
		return
	}
	sections := []flight.Section{
		{Name: "failure", Value: failure},
		{Name: "report", Value: reportDigest(qc.Report)},
	}
	if qc.Report.Profile != nil {
		sections = append(sections, flight.Section{Name: "profile", Value: qc.Report.Profile})
	} else if prof := buildProfileSafe(qc); prof != nil {
		sections = append(sections, flight.Section{Name: "profile", Value: prof})
	}
	if prog != nil {
		sections = append(sections, flight.Section{Name: "progress", Value: prog.Snapshot()})
	}
	pm.Capture(reason, sections...)
}

// buildProfileSafe assembles the EXPLAIN ANALYZE profile for a bundle
// even when the query died mid-pipeline, shielding the dump from
// secondary panics over half-built stage products.
func buildProfileSafe(qc *QueryContext) (p *Profile) {
	defer func() { recover() }()
	return buildProfile(qc)
}

// reportDigest is the bundle's report section: the Report minus its
// materialized output array (which can be arbitrarily large and is not
// diagnostic evidence).
func reportDigest(rep *Report) map[string]any {
	if rep == nil {
		return nil
	}
	return map[string]any{
		"plan_source":           rep.PlanSource,
		"cache_outcome":         rep.CacheOutcome,
		"selectivity":           rep.Selectivity,
		"stages":                rep.Stages,
		"plan_seconds":          rep.PlanTime,
		"align_seconds":         rep.AlignTime,
		"compare_seconds":       rep.CompareTime,
		"total_seconds":         rep.Total,
		"matches":               rep.Matches,
		"cells_moved":           rep.CellsMoved,
		"node_compare_seconds":  rep.NodeCompareTime,
		"unit_cells":            rep.UnitCells,
		"skew":                  rep.Skew,
		"straggler_node":        rep.StragglerNode,
		"lock_wait_seconds":     rep.LockWaitSeconds,
		"peak_batch_bytes":      rep.PeakBatchBytes,
		"memory_overflow_bytes": rep.MemoryOverflowBytes,
		"clamped_cells":         rep.ClampedCells,
		"wall":                  rep.WallTime.String(),
	}
}

// Run executes τ = left ⋈ right over the cluster through the full
// pipeline.
func Run(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (*Report, error) {
	dl, err := c.Catalog.Lookup(leftName)
	if err != nil {
		return nil, err
	}
	dr, err := c.Catalog.Lookup(rightName)
	if err != nil {
		return nil, err
	}
	return RunDistributed(c, dl, dr, pred, out, opt)
}

// RunDistributed is Run for already-resolved distributed arrays.
func RunDistributed(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) (*Report, error) {
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	if err := Execute(qc, DefaultStages()); err != nil {
		return nil, err
	}
	return qc.Report, nil
}

// Explanation describes the optimizer's view of a query without running
// it: every valid logical plan with its modeled cost, cheapest first.
type Explanation struct {
	Selectivity float64
	Units       string // join-unit description of the chosen plan
	NumUnits    int
	Plans       []logical.Plan
}

// Explain runs only the LogicalPlan stage: it enumerates and costs the
// logical plans for a join without executing it.
func Explain(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) (*Explanation, error) {
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	qc.explainOnly = true
	if err := (LogicalPlan{}).Run(qc); err != nil {
		return nil, err
	}
	return &Explanation{
		Selectivity: qc.Report.Selectivity,
		Units:       qc.plans[0].Units.String(),
		NumUnits:    qc.plans[0].NumUnits,
		Plans:       qc.plans,
	}, nil
}
