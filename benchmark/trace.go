package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans of one op share Op;
// the op's root span has Parent 0 and a Name of "op", "replay" or "setup".
// Times are nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Kind    int    `json:"kind"` // query template of the op (root spans)
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Mallocs and Bytes are runtime.MemStats deltas over the span, children
	// included. Taken only when the pass has a single client.
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
	// Counts are work counts taken at the same boundary (root spans).
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer holds every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mem   bool // take MemStats deltas; only valid with one client

	mu     sync.Mutex
	spans  []span
	nextID int
	ms     runtime.MemStats
}

func newTracer(mem bool) *tracer { return &tracer{epoch: time.Now(), mem: mem} }

// opTrace is one op's handle on the tracer. A nil *opTrace records nothing,
// so the same code runs traced and untraced.
type opTrace struct {
	tr   *tracer
	root liveSpan
}

type liveSpan struct {
	tr *tracer
	s  span
}

// A child span takes its MemStats inside its own interval and a root span
// outside it, so the cost of tracing lands in the children and an op's
// unaccounted time is the system's, not the tracer's.
func (tr *tracer) open(parent, op int, name string) liveSpan {
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.mu.Unlock()
	if op == 0 {
		op = id
	}
	ls := liveSpan{tr: tr, s: span{ID: id, Parent: parent, Op: op, Name: name}}
	if parent != 0 {
		ls.s.StartNs = int64(time.Since(tr.epoch))
	}
	if tr.mem {
		runtime.ReadMemStats(&tr.ms)
		ls.s.Mallocs, ls.s.Bytes = tr.ms.Mallocs, tr.ms.TotalAlloc
	}
	if parent == 0 {
		ls.s.StartNs = int64(time.Since(tr.epoch))
	}
	return ls
}

func (ls *liveSpan) close() {
	tr := ls.tr
	if ls.s.Parent == 0 {
		ls.s.EndNs = int64(time.Since(tr.epoch))
	}
	if tr.mem {
		runtime.ReadMemStats(&tr.ms)
		ls.s.Mallocs, ls.s.Bytes = tr.ms.Mallocs-ls.s.Mallocs, tr.ms.TotalAlloc-ls.s.Bytes
	}
	if ls.s.Parent != 0 {
		ls.s.EndNs = int64(time.Since(tr.epoch))
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, ls.s)
	tr.mu.Unlock()
}

// beginOp opens the root span of one op of the given template.
func (tr *tracer) beginOp(name string, kind int) *opTrace {
	if tr == nil {
		return nil
	}
	o := &opTrace{tr: tr, root: tr.open(0, 0, name)}
	o.root.s.Kind = kind
	return o
}

// finish closes the op's root span, attaching the op's work counts.
func (o *opTrace) finish(counts map[string]float64) {
	if o == nil {
		return
	}
	o.root.s.Counts = counts
	o.root.close()
}

// start opens a child span of the op; end closes it.
func (o *opTrace) start(name string) *liveSpan {
	if o == nil {
		return nil
	}
	ls := o.tr.open(o.root.s.ID, o.root.s.Op, name)
	return &ls
}

func (ls *liveSpan) end() {
	if ls != nil {
		ls.close()
	}
}

func (tr *tracer) writeJSON(path string, header map[string]any) error {
	header["spans"] = tr.spans
	data, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durationsMs lists, sorted, the milliseconds of every span of one name.
func (tr *tracer) durationsMs(name string) []float64 {
	var ds []float64
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == name {
			ds = append(ds, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	sort.Float64s(ds)
	return ds
}

// agg sums the spans of one name.
type agg struct {
	n       int
	ns      int64
	mallocs uint64
}

func (a *agg) add(s *span) {
	a.n++
	a.ns += s.EndNs - s.StartNs
	a.mallocs += s.Mallocs
}

func spanMs(a *agg) float64      { return float64(a.ns) / 1e6 }
func spanMallocs(a *agg) float64 { return float64(a.mallocs) }

// rootAgg sums the ops of one root name and template: the roots themselves,
// their children by name, and their counts.
type rootAgg struct {
	agg
	child  map[string]*agg
	counts map[string]float64
}

// summary indexes the spans by root name and template.
type summary map[string]map[int]*rootAgg

func (tr *tracer) summarize() summary {
	sum := summary{}
	byID := map[int]*rootAgg{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent != 0 {
			continue
		}
		if sum[s.Name] == nil {
			sum[s.Name] = map[int]*rootAgg{}
		}
		ra := sum[s.Name][s.Kind]
		if ra == nil {
			ra = &rootAgg{child: map[string]*agg{}, counts: map[string]float64{}}
			sum[s.Name][s.Kind] = ra
		}
		ra.add(s)
		for k, v := range s.Counts {
			ra.counts[k] += v
		}
		byID[s.ID] = ra
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		if ra := byID[s.Parent]; ra != nil {
			if ra.child[s.Name] == nil {
				ra.child[s.Name] = &agg{}
			}
			ra.child[s.Name].add(s)
		}
	}
	return sum
}

// perOp returns f's mean per op over the roots of one name: each template's
// mean, weighted by the template's share of the traced ops. So a layer that
// is replayed a few times per template still counts as often as the
// template ran.
func (sum summary) perOp(root string, f func(*rootAgg) float64) float64 {
	ops := 0
	for _, ra := range sum["op"] {
		ops += ra.n
	}
	var total float64
	for kind, ra := range sum[root] {
		if opk := sum["op"][kind]; opk != nil {
			total += f(ra) / float64(ra.n) * float64(opk.n) / float64(ops)
		}
	}
	return total
}

// setupMs is the wall milliseconds of the set-up spans of one name.
func (sum summary) setupMs(name string) float64 {
	var ns int64
	for _, ra := range sum["setup"] {
		if c := ra.child[name]; c != nil {
			ns += c.ns
		}
	}
	return float64(ns) / 1e6
}

// child is f's per-op mean over the child spans of one name.
func (sum summary) child(root, name string, f func(*agg) float64) float64 {
	return sum.perOp(root, func(ra *rootAgg) float64 {
		if c := ra.child[name]; c != nil {
			return f(c)
		}
		return 0
	})
}

func (sum summary) count(root, name string) float64 {
	return sum.perOp(root, func(ra *rootAgg) float64 { return ra.counts[name] })
}
