// Package pipeline is the staged query-execution engine of the shuffle
// join (Sections 3.3–3.4 of the paper). A query runs as an explicit
// sequence of stages —
//
//	LogicalPlan → SliceMap → PhysicalPlan → Align → Compare → Assemble
//
// — threading one QueryContext that carries the cluster, the options, and
// every intermediate product from stage to stage. Stages write one record
// of what happened, the Report; every telemetry view (metrics, the Chrome
// trace, the EXPLAIN ANALYZE profile, the query log, postmortem bundles)
// is rendered from it. The AQL runner, the public facade, and both CLIs
// all execute through Run / RunDistributed here. There is one data plane
// (SliceMap counts each side's cells by unit; Align places them in one
// pooled columnar store per side, each unit's side one range, read in
// place) and one execution order (Align, then Compare, below);
// Execute takes the stage list, and that seam is where the tests
// substitute their materialized-tuple, whole-unit reference executor
// (reference_test.go).
//
// # Align, then Compare
//
// The stages run strictly in order, so each stage's wall time is its own,
// as in the paper's cost model (§3.4: planning + data alignment + cell
// comparison). Align simulates the whole shuffle; only then does Compare
// run the join units, on up to Parallelism workers. Output cells, modeled
// times, and the rendered metrics and trace are bit-for-bit identical at
// every Parallelism setting — and output cells, join statistics, and
// modeled times match the tests' reference — because
//
//  1. each unit's results land in a pre-allocated per-unit slot, and
//  2. all merging — cells, join stats, modeled seconds, synthetic row
//     numbering — happens on the orchestration goroutine in a fixed
//     order: node ascending, unit assignment order, emit order. Row
//     numbers follow that order from 0, so they are node-major and
//     dense.
//
// # Compare on columns, project by gather
//
// A unit's two sides are one range of each side's store, read in place.
// The join kernel (join.RunColumns) compares their typed key columns
// and lists the matches as (left row, right row) pairs; no cell becomes
// a tuple and no match calls back. The projector, compiled once per
// query from the destination's field names or Options.Select, then
// fills the unit's typed output columns, shaped like an array.Chunk and
// sized for its matches, a column at a time: a source column by typed
// gather, a SELECT expression evaluated over gathered columns. fold
// writes node-major synthetic row numbers into them in place and keeps
// each node's slots in assignment order, so each output chunk receives
// one ascending run and needs no sort; Assemble writes them with
// array.Array.AppendParts, which clamps them column by column, buckets
// their rows by destination chunk, and appends each bucket with one
// Chunk.AppendColumns. No match allocates on the way.
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
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/shuffle"
)

// Stage is one phase of query execution. Stages run strictly in order on
// the orchestration goroutine; a stage reads its inputs from the
// QueryContext and writes its products back into it, and what it has to
// report into QueryContext.Report. A stage may use worker goroutines
// internally but must merge their results deterministically before
// returning.
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
// options) plus each stage's products.
type QueryContext struct {
	Cluster     *cluster.Cluster
	Left, Right *cluster.Distributed
	Pred        join.Predicate
	Out         *array.Schema // destination schema τ (may be nil / dimension-less)
	Opt         *Options
	Report      *Report

	ctx context.Context // resolved Opt.Ctx; checked between stages and per unit

	// Flight-recorder attachment (Execute): flight.Default, read once so
	// every event of the query lands in the same ring. Events are
	// telemetry only: the stage log records them from the Report and
	// nothing reads them back, so recorded and unrecorded runs are
	// bit-for-bit identical.
	fr  *flight.Recorder
	qid uint32

	// Stage-log state (beginStage/endStage): the live tracker Options.Hooks
	// is handed, which also holds the query's start time, and the open
	// stage's baselines.
	prog                       Progress
	stageStart                 time.Time
	alignBefore, compareBefore float64

	// Plan-cache state (LogicalPlan stage, only when Opt.Cache is set).
	sig    plancache.Signature // this query's cache signature
	cached *plancache.Entry    // hit awaiting revalidation in PhysicalPlan

	// Stage products, in the order they are produced.
	plan      *logical.Plan     // &Report.Logical: the chosen plan, once LogicalPlan has run
	spec      *shuffle.UnitSpec // SliceMap: join-unit geometry
	rsl, rsr  *shuffle.RunSet   // SliceMap: per-side slice maps
	intern    *batch.Intern     // SliceMap makes, Align fills: both sides' string dictionary
	budget    *batch.Budget     // SliceMap: per-query memory accountant
	nodeUnits [][]int           // PhysicalPlan: units assigned to each node
	outArr    *array.Array      // Compare: destination array
	proj      *projector        // Compare: output-cell projector
	nodes     []nodeOut         // Compare: merged per-node compare products
	parts     []*array.Chunk    // Compare: output parts, node ascending, units in assignment order
}

// NewQueryContext prepares a context for one join execution. opt is
// copied; stages normalize it in place.
func NewQueryContext(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) *QueryContext {
	o := opt
	rep := &Report{Query: o.QueryLabel}
	return &QueryContext{
		Cluster: c,
		Left:    dl,
		Right:   dr,
		Pred:    pred,
		Out:     out,
		Opt:     &o,
		Report:  rep,
		ctx:     o.ctx(),
		plan:    &rep.Logical,
		prog:    Progress{Label: rep.Query, Start: time.Now(), rep: rep},
	}
}

// Execute runs the stages in order, stopping at the first error. It
// records the query's flight events into flight.Default. The stage log
// (beginStage/endStage) brackets each stage; when the last one has
// returned, or a stage has panicked, publish hands the Report to the
// query's telemetry sinks. A panic then continues to the caller. A query
// that stops early first returns both sides' memory (release).
func Execute(qc *QueryContext, stages []Stage) error {
	opt, rep := qc.Opt, qc.Report
	qc.fr = flight.Default
	qc.qid = qc.fr.NextQID()
	rep.Start = qc.prog.Start
	if opt.Hooks != nil {
		opt.Hooks.QueryStarted(&qc.prog)
	}
	qc.fr.Record(flight.EvQueryStart, qc.qid, qc.fr.Label(rep.Query), 0, 0, 0)
	defer func() {
		if r := recover(); r != nil {
			// A panicking stage ends its query as a failing one does. The
			// stack is taken here, where the panicking frames are still
			// on it.
			rep.WallTime = time.Since(qc.prog.Start)
			qc.release()
			qc.publish(&stagePanic{value: r, stack: debug.Stack()})
			panic(r)
		}
	}()
	var execErr error
	for _, st := range stages {
		// Honor cancellation at every stage boundary (including before
		// the first stage, so a pre-canceled query never plans).
		if execErr = qc.ctx.Err(); execErr != nil {
			break
		}
		qc.beginStage(st.Name())
		execErr = st.Run(qc)
		qc.endStage(execErr)
		if execErr != nil {
			break
		}
	}
	rep.WallTime = time.Since(qc.prog.Start)
	if execErr != nil {
		qc.release()
	}
	qc.publish(execErr)
	return execErr
}

// release credits every unit Compare has not retired and returns both
// sides' pooled memory, for a query that stopped before Compare finished
// (canceled, failed or panicked). Compare's workers have all returned by
// then, so nothing still reads a store.
func (qc *QueryContext) release() {
	qc.rsl.Release()
	qc.rsr.Release()
}

// stagePanic is the error a panicking stage ends its query with. Its
// postmortem bundle keeps the panic value and stack.
type stagePanic struct {
	value any
	stack []byte
}

func (p *stagePanic) Error() string { return fmt.Sprintf("pipeline: panic: %v", p.value) }

// publish is the one place a finished query's Report leaves Execute: the
// closing flight events, a postmortem bundle when the outcome calls for
// one, and the hooks' QueryFinished. Metrics and traces are rendered from
// the Report later, by whoever asks (FoldMetrics, WriteChrome).
func (qc *QueryContext) publish(execErr error) {
	opt, rep := qc.Opt, qc.Report
	if execErr != nil {
		qc.fr.Record(flight.EvQueryError, qc.qid, qc.fr.Label(rep.lastStage()), qc.fr.Label(execErr.Error()), 0, 0)
		var sp *stagePanic
		switch {
		case errors.As(execErr, &sp):
			// A panicking stage still ships its own investigation.
			qc.capturePostmortem("panic", map[string]any{
				"panic": fmt.Sprint(sp.value),
				"stage": rep.lastStage(),
				"stack": string(sp.stack),
			})
		case errors.Is(execErr, context.Canceled), errors.Is(execErr, context.DeadlineExceeded):
			// Cancellation and timeouts are the caller's decision, not an
			// engine failure — no diagnostic bundle for those.
		default:
			reason := "query-error"
			switch {
			case errors.Is(execErr, batch.ErrBudget):
				reason = "strict-budget"
			case errors.Is(execErr, ErrBounds):
				reason = "strict-bounds"
			}
			qc.capturePostmortem(reason, map[string]any{
				"error": execErr.Error(),
				"stage": rep.lastStage(),
			})
		}
	} else {
		qc.fr.Record(flight.EvQueryFinish, qc.qid, rep.Matches,
			flight.F(rep.AlignTime+rep.CompareTime), int64(rep.WallTime), 0)
		if pm := flight.DefaultPostmortem(); pm != nil && pm.SlowQuery > 0 && rep.WallTime >= pm.SlowQuery {
			qc.capturePostmortem("slow-query", map[string]any{
				"wall":      rep.WallTime.String(),
				"threshold": pm.SlowQuery.String(),
			})
		}
	}
	if opt.Hooks != nil {
		qc.prog.finish(execErr != nil)
		opt.Hooks.QueryFinished(&qc.prog, rep, execErr)
	}
}

// lastStage names the stage the query was in when it stopped.
func (rep *Report) lastStage() string {
	if n := len(rep.Stages); n > 0 {
		return rep.Stages[n-1].Stage
	}
	return ""
}

// capturePostmortem marks the flight trail and writes a bundle of the
// query's current state through the process-wide sink, if one is
// installed (flight.DefaultPostmortem). Capture errors are swallowed: a
// failing diagnostic dump must never mask the query's own outcome (and
// the bundle cap makes over-capture routine, not exceptional).
func (qc *QueryContext) capturePostmortem(reason string, failure map[string]any) {
	qc.fr.Record(flight.EvPostmortem, qc.qid, qc.fr.Label(reason), 0, 0, 0)
	pm := flight.DefaultPostmortem()
	if pm == nil {
		return
	}
	pm.Capture(reason,
		flight.Section{Name: "failure", Value: failure},
		flight.Section{Name: "profile", Value: qc.Report.Profile()},
		flight.Section{Name: "progress", Value: qc.prog.Snapshot()})
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
	Plans       []logical.Plan
}

// Explain runs only the LogicalPlan stage: it enumerates and costs the
// logical plans for a join without executing it. It neither consults the
// plan cache nor pins an algorithm, so it always lists every valid plan.
func Explain(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) (*Explanation, error) {
	opt.Cache, opt.ForceAlgo = nil, nil
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	if err := (LogicalPlan{}).Run(qc); err != nil {
		return nil, err
	}
	return &Explanation{Selectivity: qc.Report.Selectivity, Plans: qc.Report.Candidates}, nil
}
