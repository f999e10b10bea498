// Concurrent multi-query serving: the facade over internal/sched. A
// Scheduler admits N concurrent Query calls into the engine with
// stage-level admission control (capped simulator pool for Align, a
// compare-stage semaphore), carves per-query batch-memory budgets out of
// one process-wide pool (queuing, not failing, when it is exhausted),
// and weighted-fair-queues admissions between the interactive and scan
// classes with a starvation bound. DB.Serve is the closed-loop driver:
// a fixed worker pool replays a job list through the scheduler and
// reports throughput and latency percentiles per class.
//
// Scheduling is control-plane only: it decides when a query starts and
// which resources it may hold, never what it computes. Query outputs,
// join statistics, and modeled phase times are bit-for-bit identical
// with and without a scheduler attached.
package shufflejoin

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shufflejoin/internal/sched"
)

// Scheduler admits concurrent queries into the engine: an admission cap
// with per-class weighted-fair queuing, a shared batch-memory pool, and
// capped Align/Compare stage slots. Create one with DB.NewScheduler,
// attach it per query with WithScheduler (or run a whole workload
// through DB.Serve), and inspect it with Snapshot. Safe for concurrent
// use; one Scheduler is meant to be shared by every query of a DB.
type Scheduler = sched.Scheduler

// SchedulerSnapshot is a point-in-time view of a Scheduler's admission
// state: in-flight and queued queries per class, cumulative
// admitted/rejected counters, memory-pool usage, and free stage slots.
type SchedulerSnapshot = sched.Snapshot

// SchedulerConfig configures DB.NewScheduler. The zero value of every
// field picks a sensible default.
type SchedulerConfig struct {
	// MaxQueries caps concurrently executing queries (default: one per
	// CPU). Submissions beyond the cap queue fairly instead of failing.
	MaxQueries int
	// AlignSlots caps concurrent Align stages — the size of the shared
	// simulator pool (default: MaxQueries).
	AlignSlots int
	// CompareSlots caps concurrent Compare stages (default: MaxQueries).
	CompareSlots int
	// MemoryPoolBytes is the process-wide batch-memory cap that admitted
	// queries reserve their budgets from; 0 disables memory admission.
	MemoryPoolBytes int64
	// PerQueryBytes is the reservation for a query without its own
	// WithMemoryBudget (default: MemoryPoolBytes / MaxQueries).
	PerQueryBytes int64
	// InteractiveWeight and ScanWeight are the WFQ weights (defaults 3
	// and 1: three interactive grants per scan grant under contention).
	InteractiveWeight int
	ScanWeight        int
	// StarvationBound forces a waiting class through after this many
	// consecutive grants to the other class (default 8).
	StarvationBound int
}

// NewScheduler creates a query scheduler wired into the database's
// metrics registry: its queue depths, admission counters, and
// admission-wait histograms appear in MetricsSnapshot (and on a hub's
// /metrics) under sched.* names.
func (db *DB) NewScheduler(cfg SchedulerConfig) *Scheduler {
	return sched.New(sched.Config{
		MaxQueries:        cfg.MaxQueries,
		AlignSlots:        cfg.AlignSlots,
		CompareSlots:      cfg.CompareSlots,
		PoolBytes:         cfg.MemoryPoolBytes,
		PerQueryBytes:     cfg.PerQueryBytes,
		InteractiveWeight: cfg.InteractiveWeight,
		ScanWeight:        cfg.ScanWeight,
		StarvationBound:   cfg.StarvationBound,
		Registry:          db.metrics,
	})
}

// WithScheduler routes the query through a shared scheduler: the call
// blocks until admitted (query slot plus memory reservation), executes
// with the scheduler's stage slots metering its Align and Compare
// phases, and releases everything when it finishes. Results are
// identical with and without a scheduler.
func WithScheduler(s *Scheduler) QueryOption {
	return func(c *queryConfig) error {
		if s == nil {
			return fmt.Errorf("shufflejoin: WithScheduler needs a non-nil scheduler (use NewScheduler)")
		}
		c.sched = s
		return nil
	}
}

// WithQueryClass sets the query's scheduling class: "interactive" (the
// default — latency-sensitive, higher WFQ weight) or "scan"
// (throughput-oriented). Only meaningful together with WithScheduler.
func WithQueryClass(class string) QueryOption {
	return func(c *queryConfig) error {
		cl, err := sched.ParseClass(class)
		if err != nil {
			return fmt.Errorf("shufflejoin: %w", err)
		}
		c.class = cl
		return nil
	}
}

// WithQueryTimeout bounds the query's total time — admission wait
// included — cancelling it with context.DeadlineExceeded at expiry.
func WithQueryTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) error {
		if d <= 0 {
			return fmt.Errorf("shufflejoin: query timeout must be positive, got %v", d)
		}
		c.timeout = d
		return nil
	}
}

// WithQueryContext attaches a cancellation context to the query: the
// pipeline checks it at every stage boundary and per join unit, so a
// cancelled query stops promptly and returns ctx's error. Composes with
// WithQueryTimeout (the timeout nests inside ctx).
func WithQueryContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) error {
		if ctx == nil {
			return fmt.Errorf("shufflejoin: WithQueryContext needs a non-nil context")
		}
		c.ctx = ctx
		return nil
	}
}

// ServeJob is one query of a DB.Serve workload.
type ServeJob struct {
	// Query is the AQL text.
	Query string
	// Class is the scheduling class ("interactive", "scan", or "" for
	// interactive).
	Class string
	// Options are extra per-query options (planner, cache, trace,
	// WithQueryTimeout, ...).
	Options []QueryOption
}

// ServeOptions configures DB.Serve.
type ServeOptions struct {
	// Concurrency is the closed-loop client count: that many workers
	// each keep exactly one query outstanding (default: the scheduler's
	// MaxQueries).
	Concurrency int
	// Scheduler is the admission scheduler the workload runs through;
	// nil creates a default-configured one.
	Scheduler *Scheduler
}

// LatencySummary is a latency distribution digest in a ServeReport.
type LatencySummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// ServeReport is the outcome of one DB.Serve run.
type ServeReport struct {
	Completed int64                     `json:"completed"`
	Failed    int64                     `json:"failed"`
	Wall      time.Duration             `json:"wall"`
	QPS       float64                   `json:"qps"`
	Latency   LatencySummary            `json:"latency"`
	PerClass  map[string]LatencySummary `json:"per_class"`
	// Errors holds the first few failure messages, for diagnosis.
	Errors []string `json:"errors,omitempty"`
	// Scheduler is the scheduler's final admission state.
	Scheduler SchedulerSnapshot `json:"scheduler"`
}

// Serve replays a job list through the scheduler with a closed-loop
// worker pool: Concurrency workers each submit the next job the moment
// their previous query finishes, until the list is exhausted. It
// returns throughput and per-class latency percentiles; per-query
// results are folded into the DB's cumulative metrics exactly as
// individual Query calls are.
func (db *DB) Serve(jobs []ServeJob, opt ServeOptions) (*ServeReport, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("shufflejoin: Serve needs at least one job")
	}
	s := opt.Scheduler
	if s == nil {
		s = db.NewScheduler(SchedulerConfig{})
	}
	workers := opt.Concurrency
	if workers <= 0 {
		workers = s.Snapshot().MaxQueries
	}
	// Validate classes up front so a typo fails the run, not one job.
	for i := range jobs {
		if _, err := sched.ParseClass(jobs[i].Class); err != nil {
			return nil, fmt.Errorf("shufflejoin: job %d: %w", i, err)
		}
	}
	db.sealAll()

	type sample struct {
		class string
		d     time.Duration
	}
	var (
		next     atomic.Int64
		failed   atomic.Int64
		mu       sync.Mutex
		samples  []sample
		errs     []string
		overflow bool
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				job := &jobs[i]
				qopts := make([]QueryOption, 0, len(job.Options)+2)
				qopts = append(qopts, job.Options...)
				qopts = append(qopts, WithScheduler(s), WithQueryClass(job.Class))
				t0 := time.Now()
				_, err := db.Query(job.Query, qopts...)
				d := time.Since(t0)
				if err != nil {
					failed.Add(1)
					mu.Lock()
					if len(errs) < 8 {
						errs = append(errs, fmt.Sprintf("job %d: %v", i, err))
					} else {
						overflow = true
					}
					mu.Unlock()
					continue
				}
				class := job.Class
				if class == "" {
					class = sched.Interactive.String()
				}
				mu.Lock()
				samples = append(samples, sample{class: class, d: d})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &ServeReport{
		Completed: int64(len(samples)),
		Failed:    failed.Load(),
		Wall:      wall,
		PerClass:  make(map[string]LatencySummary),
		Errors:    errs,
		Scheduler: s.Snapshot(),
	}
	if overflow {
		rep.Errors = append(rep.Errors, "... more errors elided")
	}
	if wall > 0 {
		rep.QPS = float64(rep.Completed) / wall.Seconds()
	}
	all := make([]time.Duration, 0, len(samples))
	byClass := make(map[string][]time.Duration)
	for _, sm := range samples {
		all = append(all, sm.d)
		byClass[sm.class] = append(byClass[sm.class], sm.d)
	}
	rep.Latency = summarize(all)
	for class, ds := range byClass {
		rep.PerClass[class] = summarize(ds)
	}
	return rep, nil
}

// summarize digests a latency sample set.
func summarize(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p*float64(len(ds))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ds) {
			i = len(ds) - 1
		}
		return ds[i]
	}
	return LatencySummary{
		Count: int64(len(ds)),
		Mean:  sum / time.Duration(len(ds)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
		Max:   ds[len(ds)-1],
	}
}
