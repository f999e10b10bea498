// Package plancache makes planning a per-connection cost instead of a
// per-query cost: a signature-keyed cache of finished plans. The key
// fingerprints everything the planners consume — schema shape, chunk
// grid, skew-histogram fingerprint (internal/stats), node count, and
// every planner setting that can change the plan — so a plan is only
// ever reused for the planning problem it was computed for. Per Skew
// Strikes Back (PAPERS.md), a cached plan is only as good as the skew
// statistics it was computed against: re-ingesting the same schema under
// a different skew profile changes the histogram fingerprint and misses
// by construction. Hits are still revalidated by re-costing the cached
// assignment against the current slice statistics, with a drift
// threshold guarding against fingerprint collisions and manually seeded
// entries. Which planner runs on a miss is not the cache's concern; the
// greedy fast path is physical.GreedyPlanner.
package plancache

import (
	"sync"

	"shufflejoin/internal/logical"
	"shufflejoin/internal/physical"
)

// Signature identifies a planning problem. Equal signatures mean the
// planners would see identical inputs: same schemas and predicate, same
// chunk grids and per-chunk cell counts, same skew histograms, same node
// count, and same planning options. Built by pipeline's signature
// computation from catalog fingerprints (cluster.DataFingerprint).
type Signature string

// Entry is one cached planning outcome: the chosen logical plan, the
// selectivity it was priced with, and the physical assignment with its
// modeled cost at store time.
type Entry struct {
	Logical     logical.Plan
	Selectivity float64
	Assignment  physical.Assignment
	Model       physical.Breakdown
	// Source records how the stored plan was produced ("greedy" or
	// "full"), so a revalidated hit can report the provenance chain.
	Source string
}

// Stats are the cache's monotone counters, mirrored into internal/obs by
// the pipeline integration.
type Stats struct {
	Hits    int64 // signature present
	Misses  int64 // signature absent
	Rejects int64 // hit whose revalidation failed (drift past threshold)
}

// Cache is a concurrency-safe plan cache. The zero value is not usable;
// call New. A nil *Cache is tolerated by every method and behaves as an
// always-miss cache, so callers can thread an optional cache without
// branching. Concurrent misses on one signature each plan, as uncached
// queries would, and the last Store wins.
type Cache struct {
	mu      sync.Mutex
	entries map[Signature]*Entry
	stats   Stats
}

// New returns an empty plan cache.
func New() *Cache {
	return &Cache{entries: make(map[Signature]*Entry)}
}

// Lookup returns the entry stored under sig, counting a hit or a miss.
// The entry is shared — callers must treat it as immutable.
func (c *Cache) Lookup(sig Signature) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[sig]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return e, ok
}

// Store records a planning outcome under sig, replacing any prior entry.
func (c *Cache) Store(sig Signature, e *Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[sig] = e
}

// RecordReject counts a revalidation rejection and evicts the stale
// entry so the replacement stored by the replanning query wins.
func (c *Cache) RecordReject(sig Signature) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Rejects++
	delete(c.entries, sig)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// MaxDrift is the revalidation threshold: a cached assignment
// whose re-costed makespan exceeds its stored makespan by more than this
// fraction is rejected. When the signature machinery works, a hit's
// statistics are identical and measured drift is exactly zero; any
// nonzero drift means the entry no longer describes the data.
const MaxDrift = 0.05

// Revalidate re-costs a cached assignment against the current planning
// problem — the cheap O(N·K) hit-path check. It returns the fresh cost
// breakdown and whether the entry is still usable: the assignment must
// be shape-valid for the problem, and its re-costed total must stay
// within MaxDrift of the total it was stored with.
func Revalidate(e *Entry, pr *physical.Problem) (physical.Breakdown, bool) {
	if e == nil || !pr.Valid(e.Assignment) {
		return physical.Breakdown{}, false
	}
	bd := pr.Evaluate(e.Assignment)
	if e.Model.Total <= 0 {
		return bd, bd.Total <= 0
	}
	return bd, bd.Total <= (1+MaxDrift)*e.Model.Total
}
