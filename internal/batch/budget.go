package batch

import (
	"errors"
	"fmt"
	"sync/atomic"

	"shufflejoin/internal/flight"
)

// ErrBudget is the sentinel wrapped by strict-mode budget violations;
// test with errors.Is.
var ErrBudget = errors.New("batch: query memory budget exceeded")

// Budget accounts the bytes of batch storage a query holds in flight,
// mirroring the engine's ClampedCells/StrictBounds pattern for bounds
// violations:
//
//   - counted mode (Strict false): overflow is measured, never fatal —
//     OverflowBytes reports how far the peak exceeded the limit;
//   - strict mode (Strict true): the Acquire that crosses the limit
//     fails with an error wrapping ErrBudget.
//
// Usage is monotonically non-decreasing while slice mapping runs (each
// side is charged once, before its store is taken) and monotonically
// non-increasing while comparison retires join units (ReleaseUnit), so
// the peak equals the total mapped bytes regardless of worker
// interleaving — Peak and OverflowBytes are deterministic at every
// Parallelism setting. A nil *Budget is a valid no-op accountant; Limit
// 0 means unlimited (counted mode never overflows, strict mode never
// fails).
type Budget struct {
	limit  int64
	strict bool
	used   atomic.Int64
	peak   atomic.Int64

	// Flight-recorder attachment, set once via SetFlight before any
	// worker touches the budget (never mutated concurrently with
	// Acquire/Release). A nil fr records nothing.
	fr  *flight.Recorder
	qid uint32
}

// NewBudget returns a budget with the given byte limit and overflow
// mode. limit <= 0 means unlimited.
func NewBudget(limit int64, strict bool) *Budget {
	if limit < 0 {
		limit = 0
	}
	return &Budget{limit: limit, strict: strict}
}

// SetFlight attaches a flight recorder so every charge/credit (and the
// overflow crossing, if any) leaves an event trail. Must be called
// before the budget is shared with workers; events are pure telemetry
// and never alter accounting.
func (b *Budget) SetFlight(fr *flight.Recorder, qid uint32) {
	if b != nil {
		b.fr, b.qid = fr, qid
	}
}

// Acquire charges n bytes. In strict mode it fails when the charge
// pushes usage past the limit (the bytes stay charged; the query is
// aborting anyway).
func (b *Budget) Acquire(n int64) error {
	if b == nil {
		return nil
	}
	u := b.used.Add(n)
	for {
		p := b.peak.Load()
		if u <= p || b.peak.CompareAndSwap(p, u) {
			break
		}
	}
	b.fr.Record(flight.EvBudgetCharge, b.qid, n, u, b.limit, 0)
	if b.limit > 0 && u > b.limit && u-n <= b.limit {
		// This charge crossed the limit — record the crossing exactly
		// once per excursion regardless of how far usage climbs.
		b.fr.Record(flight.EvBudgetOverflow, b.qid, u, b.limit, n, boolArg(b.strict))
	}
	if b.strict && b.limit > 0 && u > b.limit {
		return fmt.Errorf("%w: %d bytes in flight, limit %d", ErrBudget, u, b.limit)
	}
	return nil
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b != nil {
		u := b.used.Add(-n)
		b.fr.Record(flight.EvBudgetCredit, b.qid, n, u, b.limit, 0)
	}
}

func boolArg(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Used returns the bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of charged bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// OverflowBytes returns how far the peak exceeded the limit — the
// counted-mode analogue of ClampedCells. Zero when within budget or
// unlimited.
func (b *Budget) OverflowBytes() int64 {
	if b == nil || b.limit <= 0 {
		return 0
	}
	over := b.peak.Load() - b.limit
	if over < 0 {
		return 0
	}
	return over
}
