package shufflejoin

import (
	"fmt"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/obshttp"
	"shufflejoin/internal/pipeline"
)

// Profile is a query's EXPLAIN ANALYZE digest: per-stage wall and
// simulated timings, plan provenance (source, regret, cache outcome,
// every candidate plan with its modeled costs), shuffle transfer totals,
// and per-node skew diagnostics. Render it human-readable with String,
// or machine-readable with WriteJSON; the per-stage simulated timings
// sum exactly to MakespanSeconds and are bit-identical at every
// Parallelism setting.
type Profile = pipeline.Profile

// ObsHub is a live telemetry endpoint for the database: it implements
// the engine's query hooks and serves
//
//	/metrics         — cumulative metrics, Prometheus text format
//	/debug/queries   — ring-buffer query log with profiles
//	/debug/inflight  — per-stage progress of running queries
//	/debug/flight    — recent events of the process-wide flight ring,
//	                   which every query records into
//
// Create one with DB.NewObsHub, attach it to queries with WithQueryLog,
// and expose it with Serve (or mount Handler on an existing mux).
type ObsHub = obshttp.Hub

// ObsConfig configures DB.NewObsHub.
type ObsConfig struct {
	// SlowQuery marks log entries at or above the threshold as slow;
	// zero disables slow marking.
	SlowQuery time.Duration
	// Status annotates /debug/status with deployment identification
	// (component name plus free-form details).
	Status StatusInfo
	// Scheduler, when non-nil, annotates /debug/inflight and
	// /debug/status with the query scheduler's live admission state
	// (queue depths per class, memory-pool usage).
	Scheduler *Scheduler
}

// NewObsHub creates a telemetry hub backed by the database's cumulative
// metrics registry. Queries run with WithQueryLog(hub) appear in the
// hub's query log and in-flight view; /metrics serves the registry, into
// which every query folds its per-query metrics (see MetricsSnapshot).
func (db *DB) NewObsHub(cfg ObsConfig) *ObsHub {
	return obshttp.NewHub(obshttp.Config{
		Registry:  db.metrics,
		SlowQuery: cfg.SlowQuery,
		Status:    cfg.Status,
		Sched:     cfg.Scheduler,
	})
}

// WithQueryLog routes the query through a telemetry hub: it becomes
// visible on the hub's /debug/inflight while running and lands in the
// /debug/queries log, with its profile, when it finishes.
func WithQueryLog(hub *ObsHub) QueryOption {
	return func(c *queryConfig) error {
		if hub == nil {
			return fmt.Errorf("shufflejoin: WithQueryLog needs a non-nil hub (use NewObsHub)")
		}
		c.hooks = hub
		return nil
	}
}

// StatusInfo is the deployment identification served on /debug/status.
type StatusInfo = obshttp.StatusInfo

// Postmortem captures an on-demand diagnostic bundle into dir — the
// process-wide flight ring's recent events, the database's cumulative
// metrics, goroutine stacks, and a heap profile — and returns the
// bundle directory. Use it to snapshot a live engine that is
// misbehaving without crashing.
func (db *DB) Postmortem(dir string) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("shufflejoin: Postmortem needs a directory")
	}
	pm := &flight.Postmortem{Dir: dir, Metrics: db.metrics.WritePrometheus}
	return pm.Capture("on-demand")
}
