// Package obs is the zero-dependency metrics layer of the shuffle join
// engine: an ordered registry of counters, gauges and histograms, with
// Prometheus text and JSON writers.
//
// # Determinism
//
// A registry the engine fills from a finished query's Report
// (pipeline.FoldMetrics) holds bit-identical values at every Parallelism
// setting. Two rules make that hold:
//
//  1. Metrics are only written from sequential code over deterministic
//     inputs: the fold reads the query's finished Report, never anything
//     inside worker goroutines, and skips the Report's wall-clock fields.
//  2. The registry preserves first-registration order, and all float
//     accumulation happens in a deterministic sequence (node order, step
//     order), so sums are bit-for-bit identical across runs.
//
// # Nil safety
//
// A nil *Registry (and every *Counter, *Gauge, *Histogram reached
// through it) is a valid disabled instance: every method no-ops.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Registry is an ordered, concurrency-safe set of named metrics. A nil
// *Registry is a valid disabled instance: every accessor returns a nil
// metric whose methods no-op.
//
// Snapshot order and export order follow first registration, so a query
// folded twice produces byte-identical exports.
type Registry struct {
	mu    sync.Mutex
	order []string
	m     map[string]*metric
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	kind    metricKind
	count   int64
	gauge   float64
	buckets []float64 // upper bounds, ascending; implicit +Inf last
	hist    []int64   // len(buckets)+1
	n       int64
	sum     float64
	min     float64
	max     float64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*metric)}
}

func (r *Registry) get(name string, kind metricKind) *metric {
	if m, ok := r.m[name]; ok {
		return m
	}
	m := &metric{kind: kind, min: math.Inf(1), max: math.Inf(-1)}
	r.m[name] = m
	r.order = append(r.order, name)
	return m
}

// lookup returns the named metric, registering it on first use (a
// histogram with the given bucket bounds). Taking the lock here keeps
// the accessors below small enough to inline, so the handles they return
// need not reach the heap.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.get(name, kind)
	if kind == kindHistogram && m.buckets == nil {
		m.buckets = append([]float64(nil), buckets...)
		m.hist = make([]int64, len(buckets)+1)
	}
	return m
}

// Counter is a monotone int64 metric.
type Counter struct {
	r *Registry
	m *metric
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{r: r, m: r.lookup(name, kindCounter, nil)}
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.r.mu.Lock()
	c.m.count += n
	c.r.mu.Unlock()
}

// Gauge is a float64 metric supporting both Set (last value wins) and Add
// (deterministic accumulation — callers must add in a deterministic order).
type Gauge struct {
	r *Registry
	m *metric
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{r: r, m: r.lookup(name, kindGauge, nil)}
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.m.gauge = v
	g.r.mu.Unlock()
}

// Add accumulates into the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.m.gauge += v
	g.r.mu.Unlock()
}

// Histogram is a fixed-bucket distribution metric. Buckets are upper
// bounds (ascending); observations above the last bound land in an
// implicit +Inf bucket. Fixed buckets keep the export deterministic and
// mergeable.
type Histogram struct {
	r *Registry
	m *metric
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket upper bounds. Bounds are fixed at first registration.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{r: r, m: r.lookup(name, kindHistogram, buckets)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	m := h.m
	i := sort.SearchFloat64s(m.buckets, v)
	m.hist[i]++
	m.n++
	m.sum += v
	if v < m.min {
		m.min = v
	}
	if v > m.max {
		m.max = v
	}
	h.r.mu.Unlock()
}

// quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the fixed buckets, interpolating linearly within the
// bucket the quantile falls in (the histogram_quantile convention). The
// first bucket's lower edge and the +Inf bucket's upper edge are taken
// from the observed min and max, so single-bucket histograms and tail
// quantiles stay within the observed range. Returns NaN when nothing has
// been observed. The caller holds the registry lock.
func (m *metric) quantile(q float64) float64 {
	if m.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return m.min
	}
	if q >= 1 {
		return m.max
	}
	target := q * float64(m.n)
	var cum float64
	for i, c := range m.hist {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := m.min
			if i > 0 && m.buckets[i-1] > lo {
				lo = m.buckets[i-1]
			}
			hi := m.max
			if i < len(m.buckets) && m.buckets[i] < hi {
				hi = m.buckets[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum = next
	}
	return m.max
}

// PowersOf2Buckets returns bucket bounds 1, 2^s, 2^2s, ... covering counts
// up to about 2^(s*n); the standard shape for cells-per-unit style skew
// histograms.
func PowersOf2Buckets(step, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(2, float64(step*i))
	}
	return out
}

// Snapshot flattens every metric into name -> value. Counters and gauges
// map directly; a histogram h contributes h.count, h.sum, h.min, h.max.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.order))
	for _, name := range r.order {
		m := r.m[name]
		switch m.kind {
		case kindCounter:
			out[name] = float64(m.count)
		case kindGauge:
			out[name] = m.gauge
		case kindHistogram:
			out[name+".count"] = float64(m.n)
			out[name+".sum"] = m.sum
			if m.n > 0 {
				out[name+".min"] = m.min
				out[name+".max"] = m.max
			}
		}
	}
	return out
}

// jsonMetric is the export form of one metric.
type jsonMetric struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Value   float64   `json:"value,omitempty"`
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Buckets []float64 `json:"buckets,omitempty"`
	Counts  []int64   `json:"counts,omitempty"`
}

// WriteJSON emits the registry as a JSON array in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	r.mu.Lock()
	out := make([]jsonMetric, 0, len(r.order))
	for _, name := range r.order {
		m := r.m[name]
		jm := jsonMetric{Name: name}
		switch m.kind {
		case kindCounter:
			jm.Kind = "counter"
			jm.Value = float64(m.count)
		case kindGauge:
			jm.Kind = "gauge"
			jm.Value = m.gauge
		case kindHistogram:
			jm.Kind = "histogram"
			jm.Count = m.n
			jm.Sum = m.sum
			if m.n > 0 {
				jm.Min, jm.Max = m.min, m.max
			}
			jm.Buckets = append([]float64(nil), m.buckets...)
			jm.Counts = append([]int64(nil), m.hist...)
		}
		out = append(out, jm)
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
