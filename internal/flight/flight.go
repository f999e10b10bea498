// Package flight is the engine's always-on flight recorder: a
// lock-free, fixed-capacity ring buffer of compact structured events
// that every layer of the engine writes into as it works — query
// lifecycle and stage boundaries (internal/pipeline), memory-budget
// charges, credits and overflows (internal/batch), scheduler admission
// (internal/sched) and postmortem captures. What a query's Report holds
// (plan-cache outcome, shuffle congestion, the straggler) is not copied
// here: the query's profile renders it. When a query stalls, blows its
// budget, or panics, the last few thousand events are the black box:
// Snapshot them live over /debug/flight, or let a Postmortem dump them
// into a diagnostic bundle alongside profiles and pprof captures.
//
// The recorder is designed to be left on in production:
//
//   - Record is wait-free and allocation-free in steady state (a few
//     atomic stores plus one monotonic clock read; a test gates 0
//     allocs/op), so recording never perturbs the engine's bit-for-bit
//     determinism guarantees — events are telemetry, never inputs.
//   - Writers never block readers and readers never block writers: each
//     slot carries a seqlock-style version word, and Snapshot simply
//     skips slots that are mid-write or already recycled.
//   - Event payloads are six 64-bit words: nanoseconds since the
//     recorder's epoch, the event type + query id, and four typed
//     arguments (ints, float bits via F, or ids from the bounded label
//     intern table).
//
// A nil *Recorder is a valid disabled instance (every method no-ops),
// following the engine's nil-Registry/nil-Budget convention. Every layer
// records into, and every debug surface serves, the one process-wide
// ring Default (capacity 8192). See DESIGN.md §12.
package flight

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// DefaultCapacity is the ring capacity of the package Default recorder.
const DefaultCapacity = 8192

// Default is the process-wide recorder: queries, the scheduler and the
// memory budgets record into it, and /debug/flight and postmortem
// bundles dump it. The engine never reassigns it; a test may swap in nil
// to run a query unrecorded.
var Default = New(DefaultCapacity)

// maxLabels bounds the label intern table; once full, new labels map to
// id 0 (rendered as "") instead of growing without bound.
const maxLabels = 4096

// maxLabelBytes bounds each label. Labels carry whole query texts and
// error messages, and the table keeps them for the recorder's lifetime,
// so Label cuts longer strings at a rune boundary before interning.
const maxLabelBytes = 256

// slot is one ring entry. ver follows the seqlock protocol on the slot's
// sequence number s: 2s+1 while the writer of sequence s is filling the
// words, 2s+2 once published. Readers accept a slot only when ver reads
// 2s+2 before and after copying the payload; a concurrent overwrite (a
// later sequence that wrapped onto the same slot) changes ver and the
// read is discarded. Payload words are atomics so concurrent
// writer/reader access stays within the Go memory model (and clean under
// -race) without any lock.
type slot struct {
	ver  atomic.Uint64
	word [6]atomic.Uint64
}

// Recorder is the lock-free ring buffer. Create with New; the zero
// value is not usable (use a nil *Recorder for a disabled one).
type Recorder struct {
	epoch time.Time
	mask  uint64
	slots []slot
	head  atomic.Uint64 // next sequence number to claim
	qid   atomic.Uint32 // last issued query id

	labelMu    sync.RWMutex
	labelIDs   map[string]int64
	labelNames []string
}

// New returns a recorder with at least the given capacity (rounded up
// to a power of two, minimum 16).
func New(capacity int) *Recorder {
	n := uint64(16)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Recorder{
		epoch:      time.Now(),
		mask:       n - 1,
		slots:      make([]slot, n),
		labelIDs:   make(map[string]int64),
		labelNames: []string{""}, // id 0: empty / intern-table overflow
	}
}

// Record appends one event: type t, query id qid, and four arguments
// whose meaning is fixed per type (see event.go). Wait-free and
// allocation-free; safe from any goroutine; no-op on a nil recorder.
func (r *Recorder) Record(t Type, qid uint32, a0, a1, a2, a3 int64) {
	if r == nil {
		return
	}
	ns := uint64(time.Since(r.epoch))
	seq := r.head.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.ver.Store(2*seq + 1)
	s.word[0].Store(ns)
	s.word[1].Store(uint64(t) | uint64(qid)<<32)
	s.word[2].Store(uint64(a0))
	s.word[3].Store(uint64(a1))
	s.word[4].Store(uint64(a2))
	s.word[5].Store(uint64(a3))
	s.ver.Store(2*seq + 2)
}

// Event is one decoded ring entry. Nanos is the event time as
// nanoseconds since the recorder's epoch (TimeOf converts); Args hold
// the four per-type arguments (float arguments are Float64 bits — use
// Float; label arguments are intern-table ids — use LabelName).
type Event struct {
	Seq   uint64
	Nanos uint64
	Type  Type
	QID   uint32
	Args  [4]int64
}

// TimeOf converts an event's relative timestamp to wall-clock time.
func (r *Recorder) TimeOf(e Event) time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch.Add(time.Duration(e.Nanos))
}

// Snapshot returns up to max of the most recent fully published events,
// oldest first (max <= 0 means everything retained). It never blocks
// writers; events being overwritten concurrently are skipped, so under
// heavy write pressure a snapshot may return slightly fewer events than
// the ring holds.
func (r *Recorder) Snapshot(max int) []Event {
	if r == nil {
		return nil
	}
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for seq := head - n; seq != head; seq++ {
		s := &r.slots[seq&r.mask]
		want := 2*seq + 2
		if s.ver.Load() != want {
			continue // mid-write, recycled, or not yet published
		}
		var w [6]uint64
		for i := range w {
			w[i] = s.word[i].Load()
		}
		if s.ver.Load() != want {
			continue // overwritten while copying: discard the torn read
		}
		out = append(out, Event{
			Seq:   seq,
			Nanos: w[0],
			Type:  Type(w[1] & 0xff),
			QID:   uint32(w[1] >> 32),
			Args:  [4]int64{int64(w[2]), int64(w[3]), int64(w[4]), int64(w[5])},
		})
	}
	return out
}

// NextQID issues a fresh nonzero query id for correlating one query's
// events. Returns 0 (the "no query" id) on a nil recorder.
func (r *Recorder) NextQID() uint32 {
	if r == nil {
		return 0
	}
	return r.qid.Add(1)
}

// Label interns a string, cut to its first maxLabelBytes bytes, and
// returns its id for use as an event argument; strings that agree on that
// prefix share an id. Interning an already-known label is
// allocation-free; the table is bounded, and once full (or for the empty
// string, or on a nil recorder) Label returns 0, which renders as "".
func (r *Recorder) Label(s string) int64 {
	if r == nil || s == "" {
		return 0
	}
	if len(s) > maxLabelBytes {
		n := maxLabelBytes
		for n > maxLabelBytes-utf8.UTFMax && !utf8.RuneStart(s[n]) {
			n--
		}
		s = s[:n]
	}
	r.labelMu.RLock()
	id, ok := r.labelIDs[s]
	r.labelMu.RUnlock()
	if ok {
		return id
	}
	r.labelMu.Lock()
	defer r.labelMu.Unlock()
	if id, ok := r.labelIDs[s]; ok {
		return id
	}
	if len(r.labelNames) >= maxLabels {
		return 0
	}
	// Own the bytes: a cut label must not pin its caller's longer string.
	s = strings.Clone(s)
	id = int64(len(r.labelNames))
	r.labelNames = append(r.labelNames, s)
	r.labelIDs[s] = id
	return id
}

// LabelName resolves an interned label id; unknown ids render as "".
func (r *Recorder) LabelName(id int64) string {
	if r == nil || id <= 0 {
		return ""
	}
	r.labelMu.RLock()
	defer r.labelMu.RUnlock()
	if id >= int64(len(r.labelNames)) {
		return ""
	}
	return r.labelNames[id]
}

// Stats describes a recorder's state for status endpoints.
type Stats struct {
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"` // events ever recorded (retained + overwritten)
	Labels   int    `json:"labels"`   // interned label count
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.labelMu.RLock()
	labels := len(r.labelNames) - 1
	r.labelMu.RUnlock()
	return Stats{Capacity: len(r.slots), Recorded: r.head.Load(), Labels: labels}
}
