package pipeline

import (
	"fmt"
	"sync"
	"time"

	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/par"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/stats"
)

// LogicalPlan is the Section 4 planning stage: source resolution,
// join-schema inference, selectivity estimation, and plan enumeration.
// It normalizes the options in place and selects the plan to execute
// (cheapest, or the ForceAlgo match).
type LogicalPlan struct{}

func (LogicalPlan) Name() string { return "logical-plan" }

func (LogicalPlan) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	opt.normalize()
	carry, err := selectCarry(qc.Left.Array.Schema, qc.Right.Array.Schema, opt.Select)
	if err != nil {
		return err
	}
	if opt.Cache != nil {
		qc.sig = planSignature(qc, carry)
		// A miss plans below, and PhysicalPlan Stores the outcome.
		qc.Report.CacheOutcome = "miss"
		if e, ok := opt.Cache.Lookup(qc.sig); ok {
			// Hit: replay the stored logical plan; the physical stage
			// revalidates the assignment against fresh slice statistics.
			qc.Report.CacheOutcome = "hit"
			qc.cached = e
			qc.Report.Candidates = []logical.Plan{e.Logical}
			qc.Report.Logical = e.Logical
			qc.Report.Selectivity = e.Selectivity
			return nil
		}
	}
	src, err := logical.ResolveSources(qc.Left.Array.Schema, qc.Right.Array.Schema, qc.Out, qc.Pred)
	if err != nil {
		return err
	}
	// Join units should be of moderate size (Section 3.3): fine grained
	// enough to give every node many units to balance, capped so huge
	// inputs don't flood the physical planner with options.
	total := qc.Left.Array.CellCount() + qc.Right.Array.CellCount()
	target := total / int64(32*c.K)
	if target < 256 {
		target = 256
	}
	if target > logical.DefaultTargetCellsPerChunk {
		target = logical.DefaultTargetCellsPerChunk
	}
	js, err := logical.InferJoinSchema(src, logical.InferOptions{
		AttrHistogram:       catalogHistogram(c, qc.Left, qc.Right),
		TargetCellsPerChunk: target,
		ExtraCarryLeft:      carry[0],
		ExtraCarryRight:     carry[1],
	})
	if err != nil {
		return err
	}
	lopt := logical.PlanOptions{Selectivity: opt.Selectivity, Nodes: c.K}
	sa := logical.ArrayStats{Cells: qc.Left.Array.CellCount(), Chunks: int64(qc.Left.Array.ChunkCount())}
	sb := logical.ArrayStats{Cells: qc.Right.Array.CellCount(), Chunks: int64(qc.Right.Array.ChunkCount())}
	if lopt.Selectivity <= 0 {
		// No caller estimate: derive one from catalog statistics
		// (histogram-based power-law estimation; see internal/cardinality).
		lopt.Selectivity = EstimateSelectivity(c, qc.Left, qc.Right, src)
	}
	plans, err := logical.Enumerate(js, sa, sb, lopt)
	if err != nil {
		return err
	}
	qc.Report.Candidates = plans
	qc.Report.Selectivity = lopt.Selectivity
	lp := plans[0]
	if opt.ForceAlgo != nil {
		found := false
		for _, p := range plans {
			if p.Algo == *opt.ForceAlgo {
				lp, found = p, true
				break
			}
		}
		if !found {
			return fmt.Errorf("pipeline: no valid plan with algorithm %v", *opt.ForceAlgo)
		}
	}
	qc.Report.Logical = lp
	return nil
}

// SliceMap is the Section 3.3 stage: each node maps its resident cells of
// both sides to join units and counts every slice (shuffle.CountSlices),
// charging each side's bytes to the per-query memory budget —
// Options.MemoryBudget, or the Gate's reservation when that is zero.
type SliceMap struct{}

func (SliceMap) Name() string { return "slice-map" }

func (SliceMap) Run(qc *QueryContext) error {
	c, opt := qc.Cluster, qc.Opt
	workers := opt.workers()
	spec, lm, rm := logical.UnitSpecFor(qc.plan)
	limit := opt.MemoryBudget
	if limit == 0 && opt.Gate != nil {
		limit = opt.Gate.MemoryBytes()
	}
	qc.budget = batch.NewBudget(limit, opt.Strict)
	// Attach before the budget is shared with mapper workers so
	// charge/credit events carry the query id from the first charge.
	qc.budget.SetFlight(qc.fr, qc.qid)
	cfg := shuffle.StreamConfig{
		Intern: batch.NewIntern(),
		Budget: qc.budget,
	}
	// Each side is kept as soon as it is mapped, so a failure mapping the
	// right side still returns the left's memory (Execute's release).
	var err error
	if qc.rsl, err = shuffle.CountSlices(qc.Left, c.K, spec, lm, workers, cfg); err != nil {
		return err
	}
	if qc.rsr, err = shuffle.CountSlices(qc.Right, c.K, spec, rm, workers, cfg); err != nil {
		return err
	}
	qc.intern = cfg.Intern
	// The budget only rises during mapping and only falls as compare
	// retires units, so the peak is already final here (and
	// deterministic across Parallelism).
	rep := qc.Report
	rep.PeakBatchBytes = qc.budget.Peak()
	rep.MemoryOverflowBytes = qc.budget.OverflowBytes()
	qc.spec = spec
	return nil
}

// PhysicalPlan is the Section 5 stage: the configured planner assigns
// join units to nodes, minimizing the modeled cost.
type PhysicalPlan struct{}

func (PhysicalPlan) Name() string { return "physical-plan" }

func (PhysicalPlan) Run(qc *QueryContext) error {
	c := qc.Cluster
	pr, err := physical.NewProblem(c.K, modelAlgo(qc.plan.Algo), qc.rsl.Sizes(), qc.rsr.Sizes(), params)
	if err != nil {
		return err
	}
	pres, err := planAssignment(qc, pr)
	if err != nil {
		return err
	}
	rep := qc.Report
	rep.Physical = pres
	rep.PlanSource, rep.PlanRegret = planSource(qc, pres), pres.Regret
	rep.PlanTime = pres.PlanTime.Seconds()
	rep.CellsMoved = pr.CellsMoved(pres.Assignment)
	rep.UnitCells = append([]int64(nil), pr.UnitTotal...)
	rep.Nodes = make([]NodeLoad, c.K)
	for u := 0; u < qc.spec.NumUnits; u++ {
		dest := pres.Assignment[u]
		rep.Nodes[dest].Units++
		rep.Nodes[dest].AssignedCells += pr.UnitTotal[u]
	}
	// Each node's units, in assignment order, are one range of qc.units.
	qc.units, qc.nodeUnits = make([]int, qc.spec.NumUnits), make([][]int, c.K)
	at := 0
	for node := range qc.nodeUnits {
		qc.nodeUnits[node] = qc.units[at : at : at+rep.Nodes[node].Units]
		at += rep.Nodes[node].Units
	}
	for u, dest := range pres.Assignment[:qc.spec.NumUnits] {
		qc.nodeUnits[dest] = append(qc.nodeUnits[dest], u)
	}
	return nil
}

// PlanSource values recorded in Report.PlanSource.
const (
	PlanSourceCached = "cached" // signature hit, assignment revalidated
	PlanSourceGreedy = "greedy" // physical.GreedyPlanner kept its plan
	PlanSourceFull   = "full"   // any other planner
)

// planSource names where an assignment came from: a revalidated cache
// entry, the greedy planner, or full planning.
func planSource(qc *QueryContext, pres physical.Result) string {
	switch {
	case qc.cached != nil:
		return PlanSourceCached
	case pres.Planner == physical.GreedyPlanner{}.Name():
		return PlanSourceGreedy
	}
	return PlanSourceFull
}

// planAssignment produces the physical assignment for the query: a
// revalidated cache hit, else the configured planner's plan, which is
// stored back into the cache under the query's signature.
func planAssignment(qc *QueryContext, pr *physical.Problem) (physical.Result, error) {
	opt, rep := qc.Opt, qc.Report
	if e := qc.cached; e != nil {
		start := time.Now()
		if bd, ok := plancache.Revalidate(e, pr); ok {
			return physical.Result{
				Planner:    "Cached/" + e.Source,
				Assignment: e.Assignment,
				Model:      bd,
				PlanTime:   time.Since(start),
			}, nil
		}
		// The stored assignment no longer describes the data (a
		// fingerprint collision or an externally seeded entry): evict it
		// and replan the physical half. The cached logical plan is kept —
		// the logical choice depends only on signature inputs.
		opt.Cache.RecordReject(qc.sig)
		rep.CacheOutcome = "revalidate-reject"
		qc.cached = nil
	}
	pres, err := opt.Planner.Plan(pr)
	if err != nil {
		return physical.Result{}, err
	}
	if opt.Cache != nil && qc.sig != "" {
		opt.Cache.Store(qc.sig, &plancache.Entry{
			Logical:     *qc.plan,
			Selectivity: rep.Selectivity,
			Assignment:  pres.Assignment,
			Model:       pres.Model,
			Source:      planSource(qc, pres),
		})
	}
	return pres, nil
}

// Align is the Section 3.4 data alignment stage: it derives the shuffle's
// network transfers from the physical assignment and plays them through
// the lock-scheduled discrete-event simulator, then places each side's
// cells for the assignment (RunSet.Place). No unit is compared until the
// whole shuffle has been simulated.
type Align struct{}

func (Align) Name() string { return "align" }

// simPool recycles simulator instances across queries and concurrent
// pipeline runs. A reused simnet.Sim replays the alignment phase without
// allocating once its buffers reach the workload's high-water mark; the
// only steady-state allocation left in this stage is the Result clone the
// Report retains.
var simPool = sync.Pool{New: func() any { return new(simnet.Sim) }}

func (Align) Run(qc *QueryContext) error {
	c, rep := qc.Cluster, qc.Report
	var transfers []simnet.Transfer
	for u := 0; u < qc.spec.NumUnits; u++ {
		dest := rep.Physical.Assignment[u]
		for node := 0; node < c.K; node++ {
			cells := qc.rsl.Count(u, node) + qc.rsr.Count(u, node)
			if node != dest && cells > 0 {
				transfers = append(transfers, simnet.Transfer{From: node, To: dest, Cells: cells, Tag: u})
			}
		}
	}
	cfg := simnet.Config{
		Nodes:       c.K,
		PerCellTime: params.Transfer,
		Scheduling:  qc.Opt.Scheduling,
	}
	sim := simPool.Get().(*simnet.Sim)
	align, err := sim.Simulate(cfg, transfers)
	// The Result aliases the pooled instance's buffers and the Report
	// outlives this query, so detach it before releasing the simulator.
	align = align.Clone()
	simPool.Put(sim)
	if err != nil {
		return err
	}
	rep.Align = align
	rep.AlignTime = align.Makespan
	rep.LockWaitSeconds = align.LockWaitTime
	qc.rsl.Place(rep.Physical.Assignment, qc.Opt.workers())
	qc.rsr.Place(rep.Physical.Assignment, qc.Opt.workers())
	// Placement interns the strings, so the dictionary is final here.
	rep.InternedStrings = int64(qc.intern.Count())
	return nil
}

// Compare is the Section 3.4 cell comparison stage. It builds the
// destination array and the output projector, joins every unit on up to
// Parallelism workers, each into its own pre-allocated slot, folds the
// slots into per-node outputs, then writes every unit's output rows.
// The per-node merge — cells, join stats, modeled seconds, skew, output
// rows — happens in ascending node order on the orchestration
// goroutine, so the Report is identical at every Parallelism setting.
type Compare struct{}

func (Compare) Name() string { return "compare" }

func (Compare) Run(qc *QueryContext) error {
	rep := qc.Report
	k := qc.Cluster.K
	if err := qc.buildOutput(); err != nil {
		return err
	}
	results := make([]unitOut, qc.spec.NumUnits)
	arenas := make([]*join.Matches, qc.Opt.workers())
	par.ForEach(len(results), len(arenas), func(u, w int) { qc.joinUnit(u, &results[u], &arenas[w]) })
	rows := qc.fold(results)

	rep.NodeCompareTime = make([]float64, k)
	for node := 0; node < k; node++ {
		no := &qc.nodes[node]
		if no.err != nil {
			return no.err
		}
		rep.JoinStats.Add(no.stats)
		rep.NodeCompareTime[node] = no.time
		rep.Nodes[node].OutputCells = no.cells
		if no.time > rep.CompareTime {
			rep.CompareTime = no.time
		}
	}
	rep.Matches = rep.JoinStats.Matches
	rep.Skew, rep.StragglerNode = SkewOf(rep.NodeCompareTime)
	qc.writeUnits(results, rows)
	for _, m := range arenas {
		if m != nil {
			m.L, m.R = m.L[:0], m.R[:0]
			arenaPool.Put(m)
		}
	}
	return nil
}

// Assemble is the final stage: it writes a dimensioned output's parts
// (Compare wrote a row-numbered one in place) into the destination
// array with Array.AppendParts, in deterministic order (node ascending,
// units in assignment order, emit order), which clamps or rejects
// out-of-range coordinates column by column, sizes every chunk for the
// rows bound for it and appends each unit's rows to their chunks one
// column at a time; then it sorts the destination and closes out the
// report's totals.
type Assemble struct{}

func (Assemble) Name() string { return "assemble" }

func (Assemble) Run(qc *QueryContext) error {
	rep, out, parts := qc.Report, qc.outArr, qc.parts
	qc.parts = nil
	if len(parts) > 0 {
		clamped, bad := out.AppendParts(parts, qc.Opt.Strict, nil)
		if bad != nil {
			return fmt.Errorf("pipeline: output cell %v: %w", parts[bad.Part].CoordsAt(bad.Row, nil), bad.Err)
		}
		rep.ClampedCells += clamped
	}
	out.SortAll()
	rep.Output = out
	rep.Total = rep.PlanTime + rep.AlignTime + rep.CompareTime
	return nil
}

// SkewOf returns the straggler ratio (max/mean) of per-node modeled
// compare times and the argmax node, or (0, -1) when no node has work.
func SkewOf(times []float64) (float64, int) {
	var sum, max float64
	straggler := -1
	for node, t := range times {
		sum += t
		if straggler == -1 || t > max {
			max, straggler = t, node
		}
	}
	if sum == 0 {
		return 0, -1
	}
	mean := sum / float64(len(times))
	return max / mean, straggler
}

// modelAlgo maps the plan's algorithm to one the physical cost model
// accepts; nested loop (never profitable, still executable) is modeled as
// hash for assignment purposes.
func modelAlgo(a join.Algorithm) join.Algorithm {
	if a == join.NestedLoop {
		return join.Hash
	}
	return a
}

// catalogHistogram serves attribute histograms from c's catalog — the
// statistics the paper's engine keeps there — and, for an operand the
// catalog does not hold (a k-way join's query-local intermediate), from
// the operand itself. It resolves by name, so c must be the query's
// cluster.Snapshot, lest an array republished under an operand's name
// mid-query change its estimates. Histograms are built lazily and cached
// per Distributed (see cluster.AttrHistogram), so repeated queries over
// the same array do not rescan its cells.
func catalogHistogram(c *cluster.Cluster, left, right *cluster.Distributed) func(arrayName, attrName string) *stats.Histogram {
	return func(arrayName, attrName string) *stats.Histogram {
		d, err := c.Catalog.Lookup(arrayName)
		if err != nil {
			switch arrayName {
			case left.Array.Schema.Name:
				d = left
			case right.Array.Schema.Name:
				d = right
			default:
				return nil
			}
		}
		return d.AttrHistogram(attrName)
	}
}
