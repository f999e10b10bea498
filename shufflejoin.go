// Package shufflejoin is a skew-aware distributed join optimizer and
// executor for array databases — a from-scratch implementation of the
// shuffle join framework of "Skew-Aware Join Optimization for Array
// Databases" (SIGMOD 2015).
//
// The library models a shared-nothing array database: multidimensional
// sparse arrays chunked into multidimensional tiles, distributed over a
// simulated cluster. Equi-join queries written in an AQL subset are
// planned in two phases — a logical planner picks the join algorithm,
// join-unit granularity, and schema-alignment operators via dynamic
// programming; a physical planner assigns join units to nodes with a
// skew-aware analytical cost model — and then executed: slices shuffle
// across a discrete-event network with coordinator-managed write locks,
// and real cells flow through real join algorithms into the destination
// array.
//
// Quickstart:
//
//	db, _ := shufflejoin.Open(4)
//	a, _ := db.CreateArray("A<v:int>[i=1,1000,100]")
//	b, _ := db.CreateArray("B<w:int>[i=1,1000,100]")
//	// ... a.Insert / b.Insert ...
//	res, _ := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i")
//	fmt.Println(res.Matches, res.Plan)
package shufflejoin

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"shufflejoin/internal/aql"
	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/par"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/sched"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/storage"
	"shufflejoin/internal/workload"
)

// DB is a simulated shared-nothing array database cluster, safe for
// concurrent use with no DB lock. Writers (sealing, Redimension, SaveAs)
// publish new catalog versions; each query reads the one version it
// pinned at its start (multi-way intermediates stay query-local), so no
// query waits for a writer and no writer waits for a query.
type DB struct {
	cluster  *cluster.Cluster
	defaults queryConfig
	metrics  *obs.Registry
	pending  sync.Map // name -> *Array created but not yet sealed
}

// Open creates a database spread over the given number of nodes.
func Open(nodes int) (*DB, error) {
	c, err := cluster.New(nodes)
	if err != nil {
		return nil, err
	}
	return &DB{
		cluster: c,
		defaults: queryConfig{
			planner: physical.MinBandwidthPlanner{},
		},
		metrics: obs.NewRegistry(),
	}, nil
}

// MetricsSnapshot returns the database's cumulative query metrics as an
// expvar-style flat map (counters and gauges by name; histograms as
// name.count/.sum/.min/.max). Every query adds to query.count,
// query.matches, query.cells_moved, and query.total_seconds, and folds
// each of its steps' metrics (pipeline.FoldMetrics: planning, alignment,
// skew, and per-node diagnostics) into the same registry: counters and
// additive gauges accumulate, and set gauges such as compare.skew hold
// the last query's value.
func (db *DB) MetricsSnapshot() map[string]float64 { return db.metrics.Snapshot() }

// recordQuery folds one finished query into the DB's cumulative metrics.
func (db *DB) recordQuery(r *Result) {
	db.metrics.Counter("query.count").Add(1)
	db.metrics.Counter("query.matches").Add(r.Matches)
	db.metrics.Counter("query.cells_moved").Add(r.CellsMoved)
	db.metrics.Gauge("query.total_seconds").Add(r.TotalSeconds)
	for _, rep := range r.reports {
		pipeline.FoldMetrics(db.metrics, rep, false)
	}
}

// Nodes returns the cluster size.
func (db *DB) Nodes() int { return db.cluster.K }

// Array is a handle to an array being built or already loaded.
type Array struct {
	db       *DB
	inner    *array.Array
	loaded   bool
	policy   cluster.PlacementPolicy
	sealOnce sync.Once
	attrs    []array.Value // Insert's scratch: the cell's values, copied into the chunk by Put
}

// CreateArray declares a new array from a schema literal in the paper's
// notation, e.g. "A<v1:int, v2:float>[i=1,6,3, j=1,6,3]". Cells are added
// with Insert; the array is distributed over the cluster when first
// queried (or explicitly via Seal).
func (db *DB) CreateArray(schemaLiteral string) (*Array, error) {
	s, err := array.ParseSchema(schemaLiteral)
	if err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, fmt.Errorf("shufflejoin: array schema needs a name")
	}
	a, err := array.New(s)
	if err != nil {
		return nil, err
	}
	ar := &Array{db: db, inner: a}
	db.pending.Store(s.Name, ar)
	return ar, nil
}

// Name returns the array's name.
func (ar *Array) Name() string { return ar.inner.Schema.Name }

// Schema returns the array's schema literal.
func (ar *Array) Schema() string { return ar.inner.Schema.String() }

// CellCount returns the number of occupied cells.
func (ar *Array) CellCount() int64 { return ar.inner.CellCount() }

// ChunkCount returns the number of stored chunks.
func (ar *Array) ChunkCount() int { return ar.inner.ChunkCount() }

// Insert stores one cell: coordinates (one per dimension) and attribute
// values (int64/int/float64/string, one per attribute). It must not run
// concurrently with another Insert into the same array, or with sealing
// it: Seal, or a query that names it.
func (ar *Array) Insert(coords []int64, values ...any) error {
	if ar.loaded {
		return fmt.Errorf("shufflejoin: %s is sealed; arrays are immutable once queried", ar.Name())
	}
	attrs := slices.Grow(ar.attrs[:0], len(values))[:len(values)]
	ar.attrs = attrs
	for i, v := range values {
		switch x := v.(type) {
		case int:
			attrs[i] = array.IntValue(int64(x))
		case int64:
			attrs[i] = array.IntValue(x)
		case float64:
			attrs[i] = array.FloatValue(x)
		case string:
			attrs[i] = array.StringValue(x)
		default:
			return fmt.Errorf("shufflejoin: unsupported value type %T", v)
		}
	}
	return ar.inner.Put(coords, attrs)
}

// DistributeByHash switches the array's placement policy from the default
// round-robin to hashed chunk placement.
func (ar *Array) DistributeByHash() { ar.policy = cluster.HashChunks }

// Seal sorts, distributes, and registers the array, making it queryable.
// Queries seal the pending arrays they name automatically.
func (ar *Array) Seal() {
	ar.sealOnce.Do(func() {
		if ar.loaded {
			return
		}
		ar.inner.SortAll()
		ar.db.cluster.Load(ar.inner, ar.policy)
		ar.loaded = true
		ar.db.pending.CompareAndDelete(ar.Name(), ar)
	})
}

// snapshot seals the query's pending operands, leaving alone arrays another
// goroutine may still be filling, and returns the cluster pinned to the
// catalog version that holds them: the one version the query reads.
func (db *DB) snapshot(operands []string) *cluster.Cluster {
	for _, name := range operands {
		if ar, ok := db.pending.Load(name); ok {
			ar.(*Array).Seal()
		}
	}
	return db.cluster.Snapshot()
}

// LoadShipTracks generates and loads an AIS-like ship-tracking array
// (heavily skewed toward port hotspots: ~85% of cells in ~5% of chunks),
// dimensioned [time, longitude, latitude] with ship_id and speed
// attributes. Used by the examples and benchmarks.
func (db *DB) LoadShipTracks(name string, cells, seed int64) *Array {
	a := workload.AISLike(name, workload.GeoConfig{Cells: cells, Seed: seed})
	ar := &Array{db: db, inner: a}
	ar.Seal()
	return ar
}

// LoadSatelliteBand generates and loads a MODIS-like satellite imagery
// band (near-uniform with mild equator-ward density), dimensioned
// [time, longitude, latitude] with a float reflectance attribute.
func (db *DB) LoadSatelliteBand(name string, cells, seed int64) *Array {
	a := workload.MODISLike(name, workload.GeoConfig{Cells: cells, Seed: seed})
	ar := &Array{db: db, inner: a}
	ar.Seal()
	return ar
}

// LoadSatelliteBandPair generates and loads two matched satellite bands
// (Section 6.3.2's adversarial layout): the second shares the first's
// sensor grid with independent readings and ~1.5% dropout.
func (db *DB) LoadSatelliteBandPair(name1, name2 string, cells, seed int64) (*Array, *Array) {
	b1, b2 := workload.MODISPair(name1, name2, workload.GeoConfig{Cells: cells, Seed: seed}, 0.015)
	a1 := &Array{db: db, inner: b1}
	a2 := &Array{db: db, inner: b2}
	a1.Seal()
	a2.Seal()
	return a1, a2
}

// LoadFile loads a serialized array (.sjar, as written by cmd/datagen)
// and registers it under its schema name.
func (db *DB) LoadFile(path string) (*Array, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := storage.ReadArray(f)
	if err != nil {
		return nil, err
	}
	ar := &Array{db: db, inner: a}
	ar.Seal()
	return ar, nil
}

// queryConfig collects per-query options.
type queryConfig struct {
	planner     physical.Planner
	selectivity float64
	scheduling  simnet.Scheduling
	parallelism int   // 0 = one worker per CPU, 1 = sequential, n = n workers
	strict      bool  // overflow (bounds, memory budget) fails the query instead of counting
	memBudget   int64 // per-query batch-memory budget in bytes (0 = unlimited)
	forceAlgo   string
	cache       *plancache.Cache
	greedyEps   float64 // > 0: plan with physical.GreedyPlanner, falling back to planner
	hooks       pipeline.QueryHooks
	ctx         context.Context // nil = Background
	class       sched.Class
	sched       *sched.Scheduler
}

// QueryOption customizes one Query call.
type QueryOption func(*queryConfig) error

// WithPlanner selects the physical planner: "baseline", "mbh", "tabu",
// "ilp", or "coarse". The optional budget applies to the ILP solvers.
func WithPlanner(name string, budget ...time.Duration) QueryOption {
	return func(c *queryConfig) error {
		b := 2 * time.Second
		if len(budget) > 0 {
			b = budget[0]
		}
		p, err := PlannerByName(name, b)
		if err != nil {
			return err
		}
		c.planner = p
		return nil
	}
}

// plannerWithWorkers propagates the query's parallelism knob into planners
// that have a worker-pool knob of their own, unless the caller already set
// one explicitly on the planner value. The planners treat Workers <= 1 as
// sequential, so the facade's 0-means-auto convention is resolved to a
// concrete worker count here.
func plannerWithWorkers(p physical.Planner, parallelism int) physical.Planner {
	w := par.Workers(parallelism)
	switch t := p.(type) {
	case physical.GreedyPlanner:
		if t.Workers == 0 {
			t.Workers = w
		}
		if t.Fallback != nil {
			t.Fallback = plannerWithWorkers(t.Fallback, parallelism)
		}
		return t
	case physical.TabuPlanner:
		if t.Workers == 0 {
			t.Workers = w
		}
		return t
	case physical.ILPPlanner:
		if t.Workers == 0 {
			t.Workers = w
		}
		return t
	case physical.CoarseILPPlanner:
		if t.Workers == 0 {
			t.Workers = w
		}
		return t
	}
	return p
}

// PlannerByName resolves a planner name.
func PlannerByName(name string, budget time.Duration) (physical.Planner, error) {
	switch name {
	case "baseline", "b":
		return physical.BaselinePlanner{}, nil
	case "mbh", "minbandwidth":
		return physical.MinBandwidthPlanner{}, nil
	case "tabu":
		return physical.TabuPlanner{}, nil
	case "ilp":
		return physical.ILPPlanner{Budget: budget}, nil
	case "coarse", "ilp-c", "ilpcoarse":
		return physical.CoarseILPPlanner{Budget: budget}, nil
	default:
		return nil, fmt.Errorf("shufflejoin: unknown planner %q (want baseline|mbh|tabu|ilp|coarse)", name)
	}
}

// PlanCache is a signature-keyed cache of logical plans and physical
// assignments, shared across queries (and safe for concurrent ones).
// Create one with NewPlanCache and attach it per query via WithPlanCache;
// a repeated query whose data, cluster, and planning options are
// unchanged skips planning entirely, after a cheap revalidation of the
// cached assignment against current statistics. The signature covers the
// per-side data fingerprints (schema, chunk grid, per-chunk cell counts,
// placement, skew histogram) — so re-ingesting the same schema with a
// different skew profile misses by construction — plus node count,
// predicate, join-column histograms, and every planning option.
type PlanCache = plancache.Cache

// PlanCacheStats is the cumulative hit/miss/revalidation-reject counters
// of a PlanCache (PlanCache.Stats).
type PlanCacheStats = plancache.Stats

// NewPlanCache creates an empty plan cache to share across queries.
func NewPlanCache() *PlanCache { return plancache.New() }

// WithPlanCache attaches a shared plan cache to the query: the query's
// plan signature is looked up before planning, and on a hit the stored
// logical plan and physical assignment are replayed (after revalidation
// against current statistics). Misses and revalidation rejects plan
// normally and store the outcome for the next identical query.
func WithPlanCache(pc *PlanCache) QueryOption {
	return func(c *queryConfig) error {
		if pc == nil {
			return fmt.Errorf("shufflejoin: WithPlanCache needs a non-nil cache (use NewPlanCache)")
		}
		c.cache = pc
		return nil
	}
}

// WithGreedyPlanning plans the physical assignment with the
// microsecond-class greedy planner (physical.GreedyPlanner:
// center-of-gravity seeding with one rebalancing sweep) instead of the
// configured planner. When the greedy assignment's predicted regret
// against the analytic cost lower bound exceeds epsilon, the configured
// planner runs as the fallback and the cheaper plan is kept
// (Result.PlanSource reports which won). The optional epsilon overrides
// the default regret threshold (0.10, calibrated by the planquality
// experiment's Zipf sweep); it must be positive.
func WithGreedyPlanning(epsilon ...float64) QueryOption {
	return func(c *queryConfig) error {
		c.greedyEps = physical.DefaultEpsilon
		if len(epsilon) > 0 {
			c.greedyEps = epsilon[0]
			if c.greedyEps <= 0 {
				return fmt.Errorf("shufflejoin: greedy-planning epsilon must be positive, got %g", c.greedyEps)
			}
		}
		return nil
	}
}

// WithSelectivity supplies the optimizer's output-cardinality estimate:
// the join is expected to produce sel·(n_left + n_right) cells.
func WithSelectivity(sel float64) QueryOption {
	return func(c *queryConfig) error {
		if sel <= 0 {
			return fmt.Errorf("shufflejoin: selectivity must be positive")
		}
		c.selectivity = sel
		return nil
	}
}

// WithAlgorithm forces the join algorithm: "hash", "merge", or
// "nestedloop". By default the logical planner chooses.
func WithAlgorithm(algo string) QueryOption {
	return func(c *queryConfig) error {
		switch algo {
		case "hash", "merge", "nestedloop", "":
			c.forceAlgo = algo
			return nil
		}
		return fmt.Errorf("shufflejoin: unknown algorithm %q", algo)
	}
}

// WithFIFOShuffle replaces the paper's greedy lock-skipping shuffle
// scheduler with naive FIFO sending (for ablation).
func WithFIFOShuffle() QueryOption {
	return func(c *queryConfig) error {
		c.scheduling = simnet.FIFONoSkip
		return nil
	}
}

// WithParallelism sets the worker count for planning and execution: 0
// (the default) uses one worker per CPU, 1 runs fully sequentially, and
// n > 1 uses n workers. Query results, join statistics, and modeled phase
// times are identical at every setting; only wall-clock changes.
func WithParallelism(n int) QueryOption {
	return func(c *queryConfig) error {
		if n < 0 {
			return fmt.Errorf("shufflejoin: parallelism must be >= 0, got %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithStrict makes overflow fatal instead of counted: the query fails
// (wrapping pipeline.ErrBounds) when an output cell's coordinates fall
// outside the destination's declared dimension ranges, instead of
// clamping the cell onto the boundary, and fails (wrapping batch.ErrBudget)
// the moment its mapped batch storage would exceed the WithMemoryBudget
// limit.
func WithStrict() QueryOption {
	return func(c *queryConfig) error {
		c.strict = true
		return nil
	}
}

// WithMemoryBudget bounds the query's mapped batch storage to the given
// number of bytes. By default overflow is counted, not fatal: the query
// still completes and Result.MemoryOverflowBytes reports how far the
// peak exceeded the budget (mirroring the ClampedCells convention).
// Combine with WithStrict to fail the query instead.
func WithMemoryBudget(bytes int64) QueryOption {
	return func(c *queryConfig) error {
		if bytes < 0 {
			return fmt.Errorf("shufflejoin: memory budget must be >= 0, got %d", bytes)
		}
		c.memBudget = bytes
		return nil
	}
}

// Query plans and executes an AQL join query, e.g.
//
//	SELECT A.v, B.w INTO T<v:int, w:int>[] FROM A JOIN B ON A.v = B.w
//
// The pending arrays it names are sealed (distributed and registered) first.
func (db *DB) Query(q string, opts ...QueryOption) (*Result, error) {
	cfg := db.defaults
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}

	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}

	planner := cfg.planner
	if cfg.greedyEps > 0 {
		planner = physical.GreedyPlanner{Epsilon: cfg.greedyEps, Fallback: planner}
	}
	eo := pipeline.Options{
		Ctx:          ctx,
		Planner:      plannerWithWorkers(planner, cfg.parallelism),
		Scheduling:   cfg.scheduling,
		Parallelism:  cfg.parallelism,
		Strict:       cfg.strict,
		MemoryBudget: cfg.memBudget,
		Selectivity:  cfg.selectivity,
		Cache:        cfg.cache,
		Hooks:        cfg.hooks,
		QueryLabel:   q,
	}
	if cfg.forceAlgo != "" {
		a, err := algoByName(cfg.forceAlgo)
		if err != nil {
			return nil, err
		}
		eo.ForceAlgo = &a
	}
	parsed, err := aql.Parse(q)
	if err != nil {
		return nil, err
	}
	c := db.snapshot(parsed.From)

	// Admission: block until the scheduler grants a query slot and a
	// memory reservation, which budgets the query unless it set its own.
	if cfg.sched != nil {
		ticket, err := cfg.sched.Admit(ctx, cfg.class, cfg.memBudget, q)
		if err != nil {
			return nil, err
		}
		defer ticket.Done()
		eo.Gate = ticket
	}

	var steps []*pipeline.Report
	var order []JoinOrderStep
	if len(parsed.From) > 2 {
		// Multi-way join: greedy join ordering (the paper's Section 8
		// future work, implemented in internal/aql). Its intermediates
		// are query-local, so it only reads the catalog.
		mres, err := aql.RunMulti(c, parsed, eo)
		if err != nil {
			return nil, err
		}
		steps = mres.Steps
		order = make([]JoinOrderStep, len(mres.Plan))
		for i, s := range mres.Plan {
			order[i] = JoinOrderStep{Left: s.Left, Right: s.Right, EstimatedCells: s.EstimatedCost}
		}
	} else {
		rep, err := aql.Run(c, parsed, eo)
		if err != nil {
			return nil, err
		}
		steps = []*pipeline.Report{rep}
	}
	res := newResult(steps, order)
	db.recordQuery(res)
	return res, nil
}

// Explain enumerates the optimizer's candidate logical plans for a
// two-way query without executing it, cheapest first.
func (db *DB) Explain(q string, opts ...QueryOption) (*Explanation, error) {
	cfg := db.defaults
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	parsed, err := aql.Parse(q)
	if err != nil {
		return nil, err
	}
	eo := pipeline.Options{
		Planner:     cfg.planner,
		Selectivity: cfg.selectivity,
	}
	ex, err := aql.Explain(db.snapshot(parsed.From), parsed, eo)
	if err != nil {
		return nil, err
	}
	out := &Explanation{Selectivity: ex.Selectivity}
	for _, p := range ex.Plans {
		out.Plans = append(out.Plans, pipeline.Candidate(p))
	}
	return out, nil
}

// Redimension reorganizes a sealed array into a new schema across the
// cluster — converting attributes to dimensions or realigning chunk
// intervals — and registers the result under the new schema's name. It
// returns the new array handle plus the simulated reorganization cost
// (the redistribution network time and chunk re-sorting the paper's
// Section 2.3.1 describes). It holds no lock while it moves data, and it
// publishes the result only once it is complete.
func (ar *Array) Redimension(schemaLiteral string) (*Array, *ReorgReport, error) {
	ar.Seal()
	target, err := array.ParseSchema(schemaLiteral)
	if err != nil {
		return nil, nil, err
	}
	if target.Name == "" {
		return nil, nil, fmt.Errorf("shufflejoin: redimension target needs a name")
	}
	d, err := ar.db.cluster.Catalog.Lookup(ar.Name())
	if err != nil {
		return nil, nil, err
	}
	out, rep, err := redistribute(ar.db.cluster, d, target, pipeline.RedistributeOptions{})
	if err != nil {
		return nil, nil, err
	}
	return &Array{db: ar.db, inner: out.Array, loaded: true}, &ReorgReport{
		AlignSeconds: rep.AlignTime,
		SortSeconds:  rep.SortTime,
		TotalSeconds: rep.TotalTime,
		CellsMoved:   rep.CellsMoved,
	}, nil
}

// redistribute is Redimension's data movement; tests swap it to hold one.
var redistribute = pipeline.Redistribute

// ReorgReport is the cost of a distributed redimension.
type ReorgReport struct {
	AlignSeconds float64
	SortSeconds  float64
	TotalSeconds float64
	CellsMoved   int64
}

// JoinOrderStep is one step of a multi-way query's greedy join order.
// EstimatedCells is the estimate that chose the step: both inputs' cells
// plus the estimated output cells.
type JoinOrderStep struct {
	Left, Right    string
	EstimatedCells float64
}
