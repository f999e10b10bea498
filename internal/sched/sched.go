// Package sched is the engine's multi-query admission layer: it decides
// which of N concurrently submitted queries may enter the pipeline, and
// when. One Scheduler owns two resources and one ordering rule:
//
//   - query slots: at most MaxQueries queries execute at once; excess
//     submissions queue (per class, FIFO) instead of piling goroutines
//     onto the stage hot paths.
//   - a shared memory pool: each admitted query reserves its
//     batch-memory budget out of one process-wide cap at admission
//     time, and a query whose reservation does not fit waits in the
//     queue rather than failing — reservation happens before any stage
//     runs, so queries never deadlock holding partial allocations.
//   - fairness: admission grants are weighted-fair-queued between the
//     interactive and scan classes (three interactive grants per scan
//     grant while both wait) by self-clocked per-class virtual time.
//
// Admission is control-plane only: it decides *when* a query starts,
// never *what* it computes. A query's outputs, modeled times, and
// profile fingerprints are bit-for-bit identical with and without a
// scheduler attached (the concurrency equivalence test pins this); only
// the interleaving of queries — and therefore wall-clock latency — is
// scheduling-dependent.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/obs"
)

// Class is a query's scheduling class.
type Class uint8

const (
	// Interactive is the latency-sensitive class (point lookups, small
	// selective joins); it carries the higher WFQ weight.
	Interactive Class = iota
	// Scan is the throughput class (large analytic scans) that may
	// saturate the pool without starving interactive work.
	Scan

	numClasses = 2
)

// String returns the class's wire name.
func (c Class) String() string {
	if c == Scan {
		return "scan"
	}
	return "interactive"
}

// ParseClass resolves a class name ("interactive" or "scan"; empty
// defaults to interactive).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "scan":
		return Scan, nil
	}
	return Interactive, fmt.Errorf("sched: unknown query class %q (want interactive|scan)", s)
}

// Config parameterizes a Scheduler. The zero value of every field
// selects a sensible default, resolved by New.
type Config struct {
	// MaxQueries is the number of queries admitted concurrently
	// (default: one per CPU). Submissions beyond it queue.
	MaxQueries int
	// PoolBytes is the process-wide batch-memory cap per-query budgets
	// are carved from; 0 disables memory admission entirely. A query
	// that declares no budget of its own reserves PoolBytes /
	// MaxQueries. A declared budget larger than PoolBytes is clamped to
	// PoolBytes so it can ever be admitted; the query's own Budget
	// still counts overflow.
	PoolBytes int64
	// Registry, when non-nil, receives the scheduler's gauges,
	// counters, and admission-wait histograms (sched.* names).
	Registry *obs.Registry
}

// waitBuckets spans admission waits from 100µs to ~100s.
var waitBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// cost is each class's virtual-time charge per grant: the inverse of the
// WFQ weights 3 (interactive) and 1 (scan), scaled to integers so that
// virtual-time comparisons are exact.
var cost = [numClasses]int64{Interactive: 1, Scan: 3}

// Scheduler admits queries. Construct with New; safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queues   [numClasses][]*waiter
	inflight int
	memUsed  int64
	// vtime[c] is the virtual finish time of class c's latest grant, and
	// vlast that of the latest grant of either class (self-clocked fair
	// queueing: vlast is the scheduler's virtual "now").
	vtime    [numClasses]int64
	vlast    int64
	admitted [numClasses]int64
	rejected [numClasses]int64

	// Metrics are optional; every handle below may be nil.
	mDepth    [numClasses]*obs.Gauge
	mInflight *obs.Gauge
	mMem      *obs.Gauge
	mAdmit    [numClasses]*obs.Counter
	mReject   [numClasses]*obs.Counter
	mWait     [numClasses]*obs.Histogram
}

// waiter is one queued admission request.
type waiter struct {
	class  Class
	bytes  int64
	since  time.Time
	ready  chan struct{}
	ticket *Ticket // set under the scheduler mutex when granted
}

// New returns a Scheduler for the given configuration, with defaults
// resolved as documented on Config.
func New(cfg Config) *Scheduler {
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{cfg: cfg}
	if reg := cfg.Registry; reg != nil {
		for c := Class(0); c < numClasses; c++ {
			s.mDepth[c] = reg.Gauge("sched.queue_depth." + c.String())
			s.mAdmit[c] = reg.Counter("sched.admitted." + c.String())
			s.mReject[c] = reg.Counter("sched.rejected." + c.String())
			s.mWait[c] = reg.Histogram("sched.admission_wait_seconds."+c.String(), waitBuckets)
		}
		s.mInflight = reg.Gauge("sched.inflight")
		s.mMem = reg.Gauge("sched.mem_reserved_bytes")
	}
	return s
}

// reserveBytes resolves a query's memory reservation: its own declared
// budget (clamped to the pool) or an equal share of the pool. Zero when
// the scheduler runs without a memory pool.
func (s *Scheduler) reserveBytes(declared int64) int64 {
	if s.cfg.PoolBytes <= 0 {
		return 0
	}
	if declared <= 0 {
		return s.cfg.PoolBytes / int64(s.cfg.MaxQueries)
	}
	return min(declared, s.cfg.PoolBytes)
}

// Admit blocks until the query is granted a slot (and, when a memory
// pool is configured, its reservation fits) or ctx is done. declared is
// the query's own memory budget in bytes (0 = none; the scheduler then
// reserves an equal share of its pool). label names the query to the
// caller's logs; admission does not read it.
//
// The returned Ticket is the query's admission grant: it satisfies the
// pipeline's Gate interface, and must be released with Done when the
// query finishes (success or failure).
func (s *Scheduler) Admit(ctx context.Context, class Class, declared int64, label string) (*Ticket, error) {
	if class >= numClasses {
		class = Interactive
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bytes := s.reserveBytes(declared)

	s.mu.Lock()
	if len(s.queues[class]) == 0 {
		// The class was idle: its virtual time restarts at the
		// scheduler's virtual now, so idling earns no credit.
		s.vtime[class] = max(s.vtime[class], s.vlast)
	}
	// Fast path: nothing queued ahead and the resources fit.
	if s.queues[Interactive] == nil && s.queues[Scan] == nil && s.fitsLocked(bytes) {
		t := s.grantLocked(class, bytes, 0)
		s.mu.Unlock()
		return t, nil
	}
	w := &waiter{class: class, bytes: bytes, since: time.Now(), ready: make(chan struct{})}
	s.queues[class] = append(s.queues[class], w)
	depth := len(s.queues[class])
	s.setDepthLocked(class)
	flight.Default.Record(flight.EvSchedQueue, 0, flight.Default.Label(class.String()), int64(depth), s.memUsed, 0)
	// A slot may have freed between the fast-path check and the
	// enqueue of a same-class predecessor; try to drain immediately.
	s.grantNextLocked()
	s.mu.Unlock()

	select {
	case <-w.ready:
		return w.ticket, nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	if w.ticket != nil {
		// The grant raced the cancellation: take the ticket and release
		// it so the resources return to the pool.
		t := w.ticket
		s.mu.Unlock()
		t.Done()
		return nil, ctx.Err()
	}
	q := s.queues[class]
	for i, qw := range q {
		if qw == w {
			s.queues[class] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(s.queues[class]) == 0 {
		s.queues[class] = nil
	}
	s.setDepthLocked(class)
	s.rejected[class]++
	if s.mReject[class] != nil {
		s.mReject[class].Add(1)
	}
	wait := time.Since(w.since)
	flight.Default.Record(flight.EvSchedReject, 0, flight.Default.Label(class.String()), int64(wait), flight.Default.Label("context"), 0)
	// Removing a head-of-line waiter may unblock a smaller one behind it.
	s.grantNextLocked()
	s.mu.Unlock()
	return nil, ctx.Err()
}

// fitsLocked reports whether a query-slot plus memory reservation is
// available right now.
func (s *Scheduler) fitsLocked(bytes int64) bool {
	if s.inflight >= s.cfg.MaxQueries {
		return false
	}
	return s.cfg.PoolBytes <= 0 || s.memUsed+bytes <= s.cfg.PoolBytes
}

// setDepthLocked mirrors a class queue's depth into its gauge.
func (s *Scheduler) setDepthLocked(c Class) {
	if s.mDepth[c] != nil {
		s.mDepth[c].Set(float64(len(s.queues[c])))
	}
}

// pickClassLocked chooses which non-empty class queue the next grant
// goes to: the class whose next grant would finish first in virtual
// time, interactive on ties. While both classes wait this grants
// interactive, interactive, interactive, scan, ... — never more than
// three grants in a row to one class, so no separate starvation bound
// is needed.
func (s *Scheduler) pickClassLocked() (Class, bool) {
	ni, ns := len(s.queues[Interactive]) > 0, len(s.queues[Scan]) > 0
	switch {
	case !ni && !ns:
		return 0, false
	case ni && !ns:
		return Interactive, true
	case ns && !ni:
		return Scan, true
	}
	if s.vtime[Scan]+cost[Scan] < s.vtime[Interactive]+cost[Interactive] {
		return Scan, true
	}
	return Interactive, true
}

// grantNextLocked drains the queues while resources last, in WFQ order.
// When the WFQ-chosen class's head does not fit the memory pool, the
// other class's head may still fit and is admitted instead (head-of-line
// bypass); when neither fits, admission waits for a release.
func (s *Scheduler) grantNextLocked() {
	for s.inflight < s.cfg.MaxQueries {
		c, ok := s.pickClassLocked()
		if !ok {
			return
		}
		bypass := false
		if !s.fitsLocked(s.queues[c][0].bytes) {
			o := 1 - c
			if len(s.queues[o]) == 0 || !s.fitsLocked(s.queues[o][0].bytes) {
				return
			}
			c, bypass = o, true
		}
		w := s.queues[c][0]
		s.queues[c] = s.queues[c][1:]
		if len(s.queues[c]) == 0 {
			s.queues[c] = nil
		}
		s.setDepthLocked(c)
		w.ticket = s.grantLocked(c, w.bytes, time.Since(w.since))
		close(w.ready)
		if bypass {
			// The bypassed class waits on memory, not on its share: like an
			// idle class, it earns no credit while the other is admitted.
			s.vtime[1-c] = max(s.vtime[1-c], s.vlast)
		}
	}
}

// grantLocked commits one admission: resources, WFQ bookkeeping,
// metrics, and the flight event. Returns the query's ticket.
func (s *Scheduler) grantLocked(c Class, bytes int64, waited time.Duration) *Ticket {
	s.inflight++
	s.memUsed += bytes
	s.vtime[c] += cost[c]
	s.vlast = s.vtime[c]
	s.admitted[c]++
	if s.mAdmit[c] != nil {
		s.mAdmit[c].Add(1)
	}
	if s.mWait[c] != nil {
		s.mWait[c].Observe(waited.Seconds())
	}
	if s.mInflight != nil {
		s.mInflight.Set(float64(s.inflight))
	}
	if s.mMem != nil {
		s.mMem.Set(float64(s.memUsed))
	}
	flight.Default.Record(flight.EvSchedAdmit, 0, flight.Default.Label(c.String()), int64(waited), int64(s.inflight), 0)
	return &Ticket{s: s, class: c, bytes: bytes}
}

// release returns a finished query's slot and reservation and wakes the
// queue.
func (s *Scheduler) release(t *Ticket) {
	s.mu.Lock()
	s.inflight--
	s.memUsed -= t.bytes
	if s.mInflight != nil {
		s.mInflight.Set(float64(s.inflight))
	}
	if s.mMem != nil {
		s.mMem.Set(float64(s.memUsed))
	}
	s.grantNextLocked()
	s.mu.Unlock()
}

// Ticket is one admitted query's grant: its query slot and memory
// reservation. It implements the pipeline's Gate interface and must be
// released with Done; Done is idempotent.
type Ticket struct {
	s     *Scheduler
	class Class
	bytes int64
	done  atomic.Bool
}

// MemoryBytes returns the batch-memory reservation carved for this
// query out of the scheduler's pool (0 when no pool is configured).
func (t *Ticket) MemoryBytes() int64 { return t.bytes }

// Done releases the query's admission slot and memory reservation and
// admits the next queued query. Idempotent.
func (t *Ticket) Done() {
	if t.done.CompareAndSwap(false, true) {
		t.s.release(t)
	}
}

// ClassCounts is one class's admission counters in a Snapshot.
type ClassCounts struct {
	Queued   int   `json:"queued"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// Snapshot is a point-in-time view of the scheduler's admission state,
// served on /debug/inflight.
type Snapshot struct {
	MaxQueries       int         `json:"max_queries"`
	Inflight         int         `json:"inflight"`
	Interactive      ClassCounts `json:"interactive"`
	Scan             ClassCounts `json:"scan"`
	MemReservedBytes int64       `json:"mem_reserved_bytes"`
	MemPoolBytes     int64       `json:"mem_pool_bytes"`
}

// Snapshot returns the scheduler's current admission state.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		MaxQueries: s.cfg.MaxQueries,
		Inflight:   s.inflight,
		Interactive: ClassCounts{
			Queued:   len(s.queues[Interactive]),
			Admitted: s.admitted[Interactive],
			Rejected: s.rejected[Interactive],
		},
		Scan: ClassCounts{
			Queued:   len(s.queues[Scan]),
			Admitted: s.admitted[Scan],
			Rejected: s.rejected[Scan],
		},
		MemReservedBytes: s.memUsed,
		MemPoolBytes:     s.cfg.PoolBytes,
	}
}
