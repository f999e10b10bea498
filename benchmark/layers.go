package main

// layers.go is the only file of the benchmark that imports internal/*. It
// is the traced pass's adapter: it loads the generated inputs into a
// cluster of its own and runs each query the way shufflejoin.DB.Query does,
// with a span around every call into a layer's public functions. A refactor
// of the internals has this one file to follow.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"shufflejoin/internal/aql"
	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/sched"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/storage"
)

// traced is the per-layer pass of a workload. tracedRun does what run does
// with spans at the layer boundaries; replay re-runs on their own the layers
// whose time an op cannot tell apart.
type traced interface {
	tracedSetup(tr *tracer) error
	tracedRun(tr *tracer, i int) (any, error) // the output goes to check
	replay(tr *tracer, kind int) error
	// layerCounts reports counts kept outside the spans.
	layerCounts() map[string]float64
	cleanup()
}

// spanName maps a pipeline stage to the layer that does its work.
var spanName = map[string]string{
	"logical-plan":  "logical.plan",
	"slice-map":     "shuffle.map",
	"physical-plan": "physical.plan",
	"align":         "pipeline.align",
	"compare":       "pipeline.compare",
	"assemble":      "pipeline.assemble",
}

// timedStage wraps a pipeline stage in a span.
type timedStage struct {
	pipeline.Stage
	o *opTrace
}

func (s timedStage) Run(qc *pipeline.QueryContext) error {
	sp := s.o.start(spanName[s.Name()])
	defer sp.end()
	return s.Stage.Run(qc)
}

// layerState is the traced pass's database and serving state.
type layerState struct {
	cluster    *cluster.Cluster
	cache      *plancache.Cache
	cacheBase  plancache.Stats // counters after warm-up
	sched      *sched.Scheduler
	sim        simnet.Sim
	candidates []float64 // logical plans enumerated, per template

	mu        sync.Mutex
	last      []*layerOut // latest output per template, for replay
	queuedMax int
}

// layerOut is one traced query's report with the sources it joined.
type layerOut struct {
	rep    *pipeline.Report
	dl, dr *cluster.Distributed
}

func (b *queryBench) cleanup() {}

func (b *queryBench) tracedSetup(tr *tracer) error {
	c, err := cluster.New(b.nodes)
	if err != nil {
		return err
	}
	b.cluster = c
	o := tr.beginOp("setup", 0)
	var arrays []*array.Array
	for _, in := range b.arrays {
		sp := o.start("array.insert")
		a, err := buildArray(in)
		sp.end()
		if err != nil {
			return err
		}
		sp = o.start("cluster.seal")
		a.SortAll()
		policy := cluster.RoundRobin
		if in.hashed {
			policy = cluster.HashChunks
		}
		c.Load(a, policy)
		sp.end()
		arrays = append(arrays, a)
	}
	// The read side of the array layer: one Scanner pass over every input,
	// folding each coordinate and value, checked against the generator.
	var got, want int64
	sp := o.start("array.scan")
	for _, a := range arrays {
		sc := a.NewScanner(0)
		for blk, ok := sc.Next(); ok; blk, ok = sc.Next() {
			for i := 0; i < blk.Len(); i++ {
				for d := range a.Schema.Dims {
					got += blk.Coord(d, i)
				}
				for k := range a.Schema.Attrs {
					got += blk.Attr(k, i).Int
				}
			}
		}
	}
	sp.end()
	o.finish(nil)
	for _, in := range b.arrays {
		for _, v := range in.coords {
			want += v
		}
		for _, v := range in.vals {
			want += v
		}
	}
	if got != want {
		return fmt.Errorf("array scan folded to %d, inputs fold to %d", got, want)
	}

	if b.serving {
		b.cache = plancache.New()
		b.sched = sched.New(sched.Config{MaxQueries: 2, Registry: obs.NewRegistry()})
	}
	b.last = make([]*layerOut, len(b.templates))
	b.candidates = make([]float64, len(b.templates))
	for k, t := range b.templates {
		// Warm-up, as in the end-to-end set-up. It must reproduce the
		// facade's modeled time, which shows the adapter runs the same query.
		out, err := b.query(nil, k)
		if err != nil {
			return fmt.Errorf("traced warm-up %q: %w", t.query, err)
		}
		if err := b.checkLayerOut(t, out); err != nil {
			return fmt.Errorf("traced warm-up %q: %w", t.query, err)
		}
		b.last[k] = out
		q, _ := aql.Parse(t.query)
		comp, err := aql.Compile(q, out.dl.Array.Schema, out.dr.Array.Schema)
		if err != nil {
			return err
		}
		ex, err := pipeline.Explain(c, out.dl, out.dr, comp.Pred, comp.Out, comp.ExecOptions(pipeline.Options{}))
		if err != nil {
			return err
		}
		b.candidates[k] = float64(len(ex.Plans))
	}
	b.cacheBase = b.cache.Stats()
	return nil
}

func (b *queryBench) tracedRun(tr *tracer, i int) (any, error) {
	k := b.kind(i)
	out, err := b.query(tr.beginOp("op", k), k)
	if err == nil {
		b.mu.Lock()
		b.last[k] = out
		b.mu.Unlock()
	}
	return out, err
}

func (b *queryBench) checkLayerOut(t *template, out *layerOut) error {
	rep := out.rep
	if rep.ClampedCells != 0 {
		return fmt.Errorf("%d clamped cells", rep.ClampedCells)
	}
	vals := make([]int64, 0, 4)
	return t.verify(rep.Matches, rep.AlignTime+rep.CompareTime, func(fn func(coords, vals []int64)) {
		rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
			vals = vals[:0]
			for _, v := range attrs {
				vals = append(vals, v.Int)
			}
			fn(coords, vals)
			return true
		})
	})
}

// query runs template k the way DB.Query and aql.Run do: parse, admit,
// look up, compile, then the six pipeline stages.
func (b *queryBench) query(o *opTrace, k int) (*layerOut, error) {
	t := b.templates[k]
	var counts map[string]float64
	defer func() { o.finish(counts) }()

	sp := o.start("aql.parse")
	q, err := aql.Parse(t.query)
	sp.end()
	if err != nil {
		return nil, err
	}
	opt := pipeline.Options{Parallelism: 1, QueryLabel: t.query, Cache: b.cache}
	if t.planner == "tabu" {
		opt.Planner = physical.TabuPlanner{Workers: 1}
	} else if t.planner != "" {
		return nil, fmt.Errorf("layers: planner %q is not wired", t.planner)
	}
	if b.sched != nil {
		class, err := sched.ParseClass(t.class)
		if err != nil {
			return nil, err
		}
		snap := b.sched.Snapshot()
		b.mu.Lock()
		b.queuedMax = max(b.queuedMax, snap.Interactive.Queued+snap.Scan.Queued)
		b.mu.Unlock()
		sp = o.start("sched.admit")
		ticket, err := b.sched.Admit(context.Background(), class, 0, t.query)
		sp.end()
		if err != nil {
			return nil, err
		}
		defer ticket.Done()
		opt.Gate, opt.MemoryBudget = ticket, ticket.MemoryBytes()
	}
	dl, err := b.cluster.Catalog.Lookup(q.Left)
	if err != nil {
		return nil, err
	}
	dr, err := b.cluster.Catalog.Lookup(q.Right)
	if err != nil {
		return nil, err
	}
	sp = o.start("aql.compile")
	comp, err := aql.Compile(q, dl.Array.Schema, dr.Array.Schema)
	sp.end()
	if err != nil {
		return nil, err
	}
	qc := pipeline.NewQueryContext(b.cluster, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
	stages := pipeline.DefaultStages()
	for i, st := range stages {
		stages[i] = timedStage{st, o}
	}
	if err := pipeline.Execute(qc, stages); err != nil {
		return nil, err
	}
	rep := qc.Report
	js := rep.JoinStats
	var mapped int64
	for _, n := range rep.UnitCells {
		mapped += n
	}
	counts = map[string]float64{
		"logical.candidates":   b.candidates[k],
		"logical.units":        float64(rep.Logical.NumUnits),
		"shuffle.map_cells":    float64(mapped),
		"batch.peak_bytes":     float64(rep.PeakBatchBytes),
		"physical.model_cost":  rep.Physical.Model.Total,
		"physical.cells_moved": float64(rep.CellsMoved),
		"simnet.transfers":     float64(len(rep.Align.Timeline)),
		"simnet.makespan_s":    rep.AlignTime,
		"simnet.lock_wait_s":   rep.LockWaitSeconds,
		"join.matches":         float64(rep.Matches),
		"join.work":            float64(js.BuildOps + js.ProbeOps + js.MergeSteps + js.Comparisons),
	}
	return &layerOut{rep: rep, dl: dl, dr: dr}, nil
}

// replay splits what overlapped execution entangles inside the align stage:
// the network simulation, replayed on the transfers rebuilt from the op's
// timeline, and the cell comparison, replayed unit by unit with a counting
// emit over a fresh slice map of the same sources.
func (b *queryBench) replay(tr *tracer, kind int) error {
	out := b.last[kind]
	rep, k := out.rep, b.cluster.K
	params := physical.DefaultParams()
	o := tr.beginOp("replay", kind)
	var counts map[string]float64
	defer func() { o.finish(counts) }()

	// The align stage lists transfers unit by unit, senders ascending.
	transfers := make([]simnet.Transfer, len(rep.Align.Timeline))
	for i, ev := range rep.Align.Timeline {
		transfers[i] = ev.Transfer
	}
	sort.Slice(transfers, func(i, j int) bool {
		if transfers[i].Tag != transfers[j].Tag {
			return transfers[i].Tag < transfers[j].Tag
		}
		return transfers[i].From < transfers[j].From
	})
	sp := o.start("simnet.simulate")
	res, err := b.sim.Simulate(simnet.Config{Nodes: k, PerCellTime: params.Transfer}, transfers)
	sp.end()
	if err != nil {
		return err
	}
	if res.Makespan != rep.AlignTime {
		return fmt.Errorf("replayed shuffle takes %v s, the op's took %v s", res.Makespan, rep.AlignTime)
	}

	spec, lm, rm := logical.UnitSpecFor(&rep.Logical)
	cfg := shuffle.StreamConfig{Intern: batch.NewIntern(), Budget: batch.NewBudget(0, false)}
	rsl, err := shuffle.MapSideStream(out.dl, k, spec, lm, 1, cfg)
	if err != nil {
		return err
	}
	rsr, err := shuffle.MapSideStream(out.dr, k, spec, rm, 1, cfg)
	if err != nil {
		return err
	}
	algo := rep.Logical.Algo
	if algo == join.NestedLoop {
		algo = join.Hash // as the physical stage models it
	}
	pr, err := physical.NewProblem(k, algo, rsl.Sizes(), rsr.Sizes(), params)
	if err != nil {
		return err
	}
	runs := 0
	for u := 0; u < spec.NumUnits; u++ {
		for node := 0; node < k; node++ {
			if rsl.Count(u, node) > 0 {
				runs++
			}
			if rsr.Count(u, node) > 0 {
				runs++
			}
		}
	}
	var stats join.Stats
	var emitted int64
	emit := func(l, r *join.Tuple) { emitted++ }
	// Collect what the mapping above left behind, so that the comparison
	// does not pay for it.
	runtime.GC()
	sp = o.start("join.compare")
	for u := 0; u < spec.NumUnits; u++ {
		dest := rep.Physical.Assignment[u]
		lrd, rrd := rsl.Reader(u, dest), rsr.Reader(u, dest)
		st, err := join.RunStream(rep.Logical.Algo, lrd, rrd, emit)
		lrd.Close()
		rrd.Close()
		rsl.ReleaseUnit(u)
		rsr.ReleaseUnit(u)
		if err != nil {
			return err
		}
		stats.Add(st)
	}
	sp.end()
	if stats != rep.JoinStats || emitted != rep.Matches {
		return fmt.Errorf("replayed compare did %+v, the op did %+v", stats, rep.JoinStats)
	}
	counts = map[string]float64{
		"shuffle.runs":          float64(runs),
		"physical.cost_over_lb": rep.Physical.Model.Total / physical.LowerBound(pr),
	}
	return nil
}

func (b *queryBench) layerCounts() map[string]float64 {
	counts := map[string]float64{"sched.queued_max": float64(b.queuedMax)}
	if b.cache != nil {
		st := b.cache.Stats()
		hits, misses := st.Hits-b.cacheBase.Hits, st.Misses-b.cacheBase.Misses
		if hits+misses > 0 {
			counts["plancache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		counts["plancache.revalidate_rejects"] = float64(st.Rejects - b.cacheBase.Rejects)
	}
	return counts
}

// buildArray puts the input's cells into a new unsorted array.
func buildArray(in *arrayInput) (*array.Array, error) {
	schema, err := array.ParseSchema(in.schema)
	if err != nil {
		return nil, err
	}
	a, err := array.New(schema)
	if err != nil {
		return nil, err
	}
	attrs := make([]array.Value, in.na)
	for r := 0; r < in.rows(); r++ {
		for k := range attrs {
			attrs[k] = array.IntValue(in.val(r, k))
		}
		if err := a.Put(in.coords[r*in.nd:(r+1)*in.nd], attrs); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// writeArrayFile writes the input as a .sjar file, the format DB.LoadFile
// reads. The facade has no writer of its own; cmd/datagen uses this one.
func writeArrayFile(path string, in *arrayInput) error {
	a, err := buildArray(in)
	if err != nil {
		return err
	}
	a.SortAll()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := storage.WriteArray(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
