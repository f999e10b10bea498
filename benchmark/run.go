package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run of one workload, as the driver asks for it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	outDir   string
}

// runResult is what one run reports: the last line of standard output.
type runResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"-"`
	Errors    []string           `json:"-"` // first few failures, for the log
}

// region is one measured stretch of ops.
type region struct {
	lat       [][]float64 // op latencies in ms, per template
	attempted int
	failed    int
	errs      []string
	wall      time.Duration // first op start to last check end
	busy      time.Duration // sum of op latencies
	mallocs   uint64        // runtime.MemStats deltas over the stretch,
	bytes     uint64        // the harness's own checks included
	gcCycles  uint32
	gcPause   time.Duration
	sample    []any // one output per template, to price the checks
}

func (r *region) all() []float64 {
	var all []float64
	for _, l := range r.lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// measure drives ops from the workload's closed-loop clients until the
// seconds are up and at least minOps ops are done. Each client runs an op,
// checks its output, and only then takes the next. Latency covers the op
// alone.
func measure(b bench, seconds float64, minOps int, run func(i int) (any, error), check func(i int, out any) error) *region {
	r := &region{lat: make([][]float64, b.kinds()), sample: make([]any, b.kinds())}
	sampleOp := make([]int, b.kinds())
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
		m0   runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				out, err := run(i)
				lat := time.Since(t0)
				if err == nil {
					err = check(i, out)
				}
				k := b.kind(i)
				mu.Lock()
				r.attempted++
				r.busy += lat
				if err != nil {
					r.failed++
					if len(r.errs) < 5 {
						r.errs = append(r.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				} else {
					r.lat[k] = append(r.lat[k], float64(lat)/1e6)
					r.sample[k], sampleOp[k] = out, i
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)

	// The checks allocate too. Scanning one output allocates the same every
	// time, so price one check per template now, with nothing else running,
	// and take the checks out of the totals.
	for k, out := range r.sample {
		if out == nil {
			continue
		}
		runtime.ReadMemStats(&m0)
		check(sampleOp[k], out)
		runtime.ReadMemStats(&m1)
		r.mallocs -= min(r.mallocs, uint64(len(r.lat[k]))*(m1.Mallocs-m0.Mallocs))
		r.bytes -= min(r.bytes, uint64(len(r.lat[k]))*(m1.TotalAlloc-m0.TotalAlloc))
	}
	r.sample = nil
	return r
}

// runWorkload is one run: set-up, then the end-to-end pass or the traced one.
func runWorkload(cfg runConfig) (*runResult, error) {
	b, err := newBench(cfg.workload, cfg.sc, cfg.seed, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	// A small workload sets up in milliseconds, which one hiccup doubles:
	// it is set up more often, so that the median is as steady as a big one's.
	var setups []float64
	var total time.Duration
	for len(setups) < cfg.sc.setupReps || (total < cfg.sc.setupBudget && len(setups) < 7*cfg.sc.setupReps) {
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		total += d
	}
	res := &runResult{Values: map[string]float64{}}
	v := res.Values
	if !cfg.trace {
		r := measure(b, cfg.seconds, cfg.sc.minOps, b.run, b.check)
		res.Attempted, res.Failed, res.Errors = r.attempted, r.failed, r.errs
		ok := float64(r.attempted - r.failed)
		if ok == 0 {
			return nil, fmt.Errorf("all %d ops failed: %v", r.attempted, r.errs)
		}
		// With one client the checks run between ops, so the time ops were
		// running is exact. With more, clients check while others run, and
		// throughput is over the wall clock: the check is the client's
		// think time.
		busy := r.busy
		if b.clients() > 1 {
			busy = r.wall
		}
		v["setup_s"] = median(setups)
		v["ops_per_s"] = ok / busy.Seconds()
		v["lat_p50_ms"] = percentile(r.all(), 0.50)
		v["allocs_per_op"] = float64(r.mallocs) / ok
		v["alloc_mb_per_op"] = float64(r.bytes) / ok / 1e6
		v["modeled_exec_s"] = b.modeled()
		return res, nil
	}

	// Traced pass. A short untraced stretch first gives the latency the
	// tracing overhead is measured against, and the tail latency.
	plain := measure(b, cfg.seconds*0.3, cfg.sc.minOps, b.run, b.check)
	// What the ops left behind: caches and leaks show here. Twice, because a
	// sync.Pool gives its contents up over two collections. The generator's
	// inputs are still held, for the traced set-up.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["runtime.heap_after_mb"] = float64(ms.HeapAlloc) / 1e6
	tr := newTracer(b.clients() == 1)
	if err := b.tracedSetup(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	r := measure(b, cfg.seconds*0.5, cfg.sc.minOps,
		func(i int) (any, error) { return b.tracedRun(tr, i) }, b.check)
	for k, lat := range r.lat {
		for rep := 0; len(lat) > 0 && rep < cfg.sc.replayReps; rep++ {
			if err := b.replay(tr, k); err != nil {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("replay: %v", err))
			}
		}
	}
	res.Attempted, res.Failed = plain.attempted+r.attempted, plain.failed+r.failed
	res.Errors = append(plain.errs, r.errs...)
	layerMetrics(v, tr, b.layerCounts(), plain, r)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	return res, tr.writeJSON(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed})
}

// layerMetrics derives every per-layer metric from the spans. A layer that
// a workload does not reach reports 0.
func layerMetrics(v map[string]float64, tr *tracer, counts map[string]float64, plain, traced *region) {
	sum := tr.summarize()
	ops := float64(traced.attempted - traced.failed)
	opMs := sum.perOp("op", func(ra *rootAgg) float64 { return spanMs(&ra.agg) })
	for _, name := range []string{"aql.parse", "aql.compile", "logical.plan", "shuffle.map", "physical.plan",
		"pipeline.align", "pipeline.compare", "pipeline.assemble", "storage.read", "exec.redistribute"} {
		v[name+"_ms"] = sum.child("op", name, spanMs)
	}
	for _, name := range []string{"logical.plan", "shuffle.map", "physical.plan", "pipeline.assemble"} {
		v[name+"_allocs"] = sum.child("op", name, spanMallocs)
	}
	// The array layer's write side and the seal are part of every op on
	// ingest_redim and of the traced set-up elsewhere.
	for _, name := range []string{"array.insert", "cluster.seal"} {
		v[name+"_ms"] = sum.child("op", name, spanMs) + sum.setupMs(name)
	}
	v["array.scan_ms"] = sum.setupMs("array.scan")
	for _, name := range []string{"logical.candidates", "logical.units", "shuffle.map_cells", "batch.peak_bytes",
		"physical.model_cost", "physical.cells_moved", "simnet.transfers", "simnet.makespan_s",
		"simnet.lock_wait_s", "join.matches"} {
		v[name] = sum.count("op", name)
	}
	v["shuffle.runs"] = sum.count("replay", "shuffle.runs")
	v["physical.cost_over_lb"] = sum.count("replay", "physical.cost_over_lb")
	v["simnet.simulate_ms"] = sum.child("replay", "simnet.simulate", spanMs)
	v["join.compare_ms"] = sum.child("replay", "join.compare", spanMs)
	v["join.compare_allocs"] = sum.child("replay", "join.compare", spanMallocs)
	v["join.work_per_match"] = 0
	if m := v["join.matches"]; m > 0 {
		v["join.work_per_match"] = sum.count("op", "join.work") / m
	}
	// Inside align and compare, what is neither the simulation nor the
	// comparison is projecting matches into output cells.
	v["pipeline.project_ms"] = v["pipeline.align_ms"] + v["pipeline.compare_ms"] - v["simnet.simulate_ms"] - v["join.compare_ms"]
	var children float64
	for _, ra := range sum["op"] {
		for _, c := range ra.child {
			children += float64(c.ns) / 1e6
		}
	}
	v["pipeline.other_ms"] = opMs - children/math.Max(ops, 1)
	v["pipeline.plan_share"], v["pipeline.unaccounted_pct"] = 0, 0
	if opMs > 0 {
		v["pipeline.plan_share"] = (v["logical.plan_ms"] + v["physical.plan_ms"]) / opMs
		v["pipeline.unaccounted_pct"] = 100 * v["pipeline.other_ms"] / opMs
	}

	waits := tr.durationsMs("sched.admit")
	v["sched.admit_wait_p50_ms"] = percentile(waits, 0.50)
	v["sched.admit_wait_p99_ms"] = percentile(waits, 0.99)
	for _, name := range []string{"sched.queued_max", "plancache.hit_ratio", "plancache.revalidate_rejects"} {
		v[name] = counts[name]
	}
	// The serving classes' latencies, from the untraced stretch.
	if len(plain.lat) == 2 {
		v["sched.interactive_p99_ms"] = percentile(sorted(plain.lat[0]), 0.99)
		v["sched.scan_p50_ms"] = percentile(sorted(plain.lat[1]), 0.50)
	} else {
		v["sched.interactive_p99_ms"], v["sched.scan_p50_ms"] = 0, 0
	}

	v["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / math.Max(ops, 1)
	v["runtime.gc_pause_ms_per_op"] = float64(traced.gcPause) / 1e6 / math.Max(ops, 1)
	v["harness.samples"] = ops
	v["harness.lat_tail_ms"] = percentile(plain.all(), 0.90)
	// Mean against mean: on a mix of templates the median is one template's.
	untraced := float64(plain.busy) / float64(plain.attempted)
	v["harness.trace_overhead_pct"] = 100 * (float64(traced.busy)/float64(traced.attempted) - untraced) / untraced
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
