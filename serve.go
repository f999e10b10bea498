// Concurrent multi-query serving: the facade over internal/sched. A
// Scheduler caps how many Query calls execute at once, carves per-query
// batch-memory budgets out of one process-wide pool (queuing, not
// failing, when it is exhausted), and weighted-fair-queues admissions
// between the interactive and scan classes. Callers serve concurrent
// load by calling Query from as many goroutines as they like, each with
// WithScheduler.
//
// Scheduling is control-plane only: it decides when a query starts and
// how much batch memory it is budgeted, never what it computes. Query
// outputs, join statistics, and modeled phase times are bit-for-bit
// identical with and without a scheduler attached.
package shufflejoin

import (
	"context"
	"fmt"

	"shufflejoin/internal/sched"
)

// Scheduler admits concurrent queries into the engine: an admission cap
// with per-class weighted-fair queuing and a shared batch-memory pool.
// Create one with DB.NewScheduler, attach it per query with
// WithScheduler, and inspect it with Snapshot. Safe for concurrent use;
// one Scheduler is meant to be shared by every query of a DB.
type Scheduler = sched.Scheduler

// SchedulerSnapshot is a point-in-time view of a Scheduler's admission
// state: in-flight and queued queries per class, cumulative
// admitted/rejected counters, and memory-pool usage.
type SchedulerSnapshot = sched.Snapshot

// SchedulerConfig configures DB.NewScheduler. The zero value of every
// field picks a sensible default.
type SchedulerConfig struct {
	// MaxQueries caps concurrently executing queries (default: one per
	// CPU). Submissions beyond the cap queue fairly instead of failing.
	MaxQueries int
	// MemoryPoolBytes is the process-wide batch-memory cap that admitted
	// queries reserve their budgets from; 0 disables memory admission. A
	// query without its own WithMemoryBudget reserves MemoryPoolBytes /
	// MaxQueries.
	MemoryPoolBytes int64
}

// NewScheduler creates a query scheduler wired into the database's
// metrics registry: its queue depths, admission counters, and
// admission-wait histograms appear in MetricsSnapshot (and on a hub's
// /metrics) under sched.* names.
func (db *DB) NewScheduler(cfg SchedulerConfig) *Scheduler {
	return sched.New(sched.Config{
		MaxQueries: cfg.MaxQueries,
		PoolBytes:  cfg.MemoryPoolBytes,
		Registry:   db.metrics,
	})
}

// WithScheduler routes the query through a shared scheduler: the call
// blocks until admitted (query slot plus memory reservation), executes
// under the reservation as its memory budget unless WithMemoryBudget set
// one, and releases both when it finishes. Results are identical with
// and without a scheduler.
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

// WithQueryContext attaches a cancellation context to the query: the
// pipeline checks it at every stage boundary and per join unit, so a
// cancelled query stops promptly and returns ctx's error. A deadline
// from context.WithTimeout bounds the query's total time, admission wait
// included.
func WithQueryContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) error {
		if ctx == nil {
			return fmt.Errorf("shufflejoin: WithQueryContext needs a non-nil context")
		}
		c.ctx = ctx
		return nil
	}
}
