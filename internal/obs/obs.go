// Package obs is the zero-dependency observability layer of the shuffle
// join engine: hierarchical spans over both wall-clock time (planning) and
// simulated cluster time (data alignment, cell comparison), plus a metrics
// registry of skew and congestion diagnostics.
//
// # Determinism
//
// The layer is built so that a query traced at any Parallelism setting
// produces the identical span tree and metric values. Three rules make
// that hold:
//
//  1. Spans and metrics are only recorded from sequential code over
//     deterministic inputs: the engine builds a query's whole capture in
//     one function, from the query's finished report (pipeline's
//     foldTrace), never from inside worker goroutines.
//  2. Simulated times (SimStart/SimEnd) come from the deterministic
//     discrete-event simulator and the analytical cost model, so they are
//     bit-for-bit reproducible. Wall-clock durations are inherently not;
//     they are stored but masked by Fingerprint, and attribute keys
//     containing "wall" are masked with them.
//  3. The metrics registry preserves first-registration order, and all
//     float accumulation happens in a deterministic sequence (node order,
//     step order), so sums are bit-for-bit identical across runs.
//
// # Nil safety
//
// A nil *Trace (and every *Span, *Counter, *Gauge, *Histogram reached
// through it) is a valid disabled instance: every method no-ops, so call
// sites need no "if tracing" branches and the disabled layer costs only a
// nil check per call. TestTraceOverheadBudget at the repository root
// bounds what enabling it costs.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key-value annotation on a span. Either Str or Num is set,
// discriminated by IsNum.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Trace is one query's observability capture: a span tree rooted at Root
// plus a metrics registry. A nil *Trace is the disabled no-op instance.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	root  *Span
	reg   *Registry
}

// New returns an enabled trace whose root span carries the given name.
func New(name string) *Trace {
	t := &Trace{epoch: time.Now(), reg: NewRegistry()}
	t.root = &Span{trace: t, Name: name, Node: -1}
	return t
}

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil }

// Root returns the root span (nil for a disabled trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Metrics returns the trace's registry (nil for a disabled trace; a nil
// registry is itself a valid no-op).
func (t *Trace) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Span is one timed region. Planning spans are wall-clock (wallStart /
// wallEnd, seconds since the trace epoch); simulator spans set Sim and
// carry simulated-cluster seconds in SimStart/SimEnd. Node is the
// simulated node the span belongs to, or -1 for coordinator/driver work.
//
// Span construction must happen on sequential code paths (see the package
// comment); the internal lock only protects against racy misuse, it does
// not make concurrent child order deterministic.
type Span struct {
	trace *Trace

	Name string
	Node int

	Sim              bool
	SimStart, SimEnd float64

	wallStart, wallEnd float64

	Attrs    []Attr
	Children []*Span
}

// Child adds a wall-clock child span that began at start and ran for the
// given number of seconds.
func (s *Span) Child(name string, start time.Time, seconds float64) *Span {
	if s == nil {
		return nil
	}
	at := start.Sub(s.trace.epoch).Seconds()
	return s.add(&Span{Name: name, wallStart: at, wallEnd: at + seconds})
}

// SimChild adds a child span measured in simulated seconds.
func (s *Span) SimChild(name string, start, end float64) *Span {
	if s == nil {
		return nil
	}
	return s.add(&Span{Name: name, Sim: true, SimStart: start, SimEnd: end})
}

func (s *Span) add(c *Span) *Span {
	c.trace, c.Node = s.trace, -1
	s.trace.mu.Lock()
	s.Children = append(s.Children, c)
	s.trace.mu.Unlock()
	return c
}

// SetNode tags the span with a simulated node id.
func (s *Span) SetNode(n int) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.Node = n
	s.trace.mu.Unlock()
}

// SetNum records a numeric attribute. Keys containing "wall" are treated
// as nondeterministic and masked from Fingerprint.
func (s *Span) SetNum(key string, v float64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Num: v, IsNum: true})
	s.trace.mu.Unlock()
}

// SetInt records an integer attribute (stored as a float; exact below 2^53).
func (s *Span) SetInt(key string, v int64) { s.SetNum(key, float64(v)) }

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
	s.trace.mu.Unlock()
}

// Fingerprint renders the span tree and all metric values in a canonical
// text form with every wall-clock quantity masked: two traces of the same
// query are required to fingerprint identically at any Parallelism
// setting. Simulated times are printed exactly (%.17g) so bit-level
// divergence is caught.
func (t *Trace) Fingerprint() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fingerprintSpan(&b, t.root, 0)
	b.WriteString("-- metrics --\n")
	t.reg.writeFingerprint(&b)
	return b.String()
}

func fingerprintSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	if s.Node >= 0 {
		fmt.Fprintf(b, " node=%d", s.Node)
	}
	if s.Sim {
		fmt.Fprintf(b, " sim=[%.17g,%.17g]", s.SimStart, s.SimEnd)
	} else {
		b.WriteString(" wall=[masked]")
	}
	for _, a := range s.Attrs {
		if strings.Contains(a.Key, "wall") {
			fmt.Fprintf(b, " %s=[masked]", a.Key)
		} else if a.IsNum {
			fmt.Fprintf(b, " %s=%.17g", a.Key, a.Num)
		} else {
			fmt.Fprintf(b, " %s=%q", a.Key, a.Str)
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		fingerprintSpan(b, c, depth+1)
	}
}

// walk visits every span depth-first. Used by the exporters.
func (t *Trace) walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	var rec func(s *Span, depth int)
	rec = func(s *Span, depth int) {
		fn(s, depth)
		for _, c := range s.Children {
			rec(c, depth)
		}
	}
	rec(t.root, 0)
}

// sortedAttrKeys returns attribute keys in first-appearance order; used by
// exporters that need a stable object layout.
func attrMap(attrs []Attr) (keys []string, m map[string]any) {
	m = make(map[string]any, len(attrs))
	for _, a := range attrs {
		if _, seen := m[a.Key]; !seen {
			keys = append(keys, a.Key)
		}
		if a.IsNum {
			m[a.Key] = a.Num
		} else {
			m[a.Key] = a.Str
		}
	}
	sort.Strings(keys)
	return keys, m
}
