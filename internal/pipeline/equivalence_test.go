package pipeline_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
)

func buildArray(schema string, seed int64, n int, domain int64) *array.Array {
	s := array.MustParseSchema(schema)
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	for len(used) < n {
		c := rng.Int63n(s.Dims[0].Extent()) + s.Dims[0].Start
		if used[c] {
			continue
		}
		used[c] = true
		a.MustPut([]int64{c}, []array.Value{array.IntValue(rng.Int63n(domain))})
	}
	a.SortAll()
	return a
}

func newCluster(t *testing.T, k int, arrays ...*array.Array) *cluster.Cluster {
	t.Helper()
	c := cluster.MustNew(k)
	for _, a := range arrays {
		c.Load(a, cluster.RoundRobin)
	}
	return c
}

type cell struct {
	coords []int64
	attrs  []array.Value
}

func cellsOf(a *array.Array) []cell {
	var out []cell
	a.Scan(func(c []int64, attrs []array.Value) bool {
		out = append(out, cell{coords: append([]int64(nil), c...), attrs: append([]array.Value(nil), attrs...)})
		return true
	})
	return out
}

// TestOverlapDeterministicAcrossParallelism locks the overlapped
// execution's determinism contract: identical fingerprints at Parallelism 1, 4,
// and 0 (one worker per CPU).
func TestOverlapDeterministicAcrossParallelism(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 11, 170, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 12, 150, 25)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,24,5]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	var base string
	for i, par := range []int{1, 4, 0} {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		tr := obs.New("determinism")
		if _, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
			Logical:     logical.PlanOptions{Selectivity: 0.5},
			Parallelism: par,
			Trace:       tr,
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		fp := tr.Fingerprint()
		if i == 0 {
			base = fp
		} else if fp != base {
			t.Fatalf("fingerprint at par=%d differs from par=1", par)
		}
	}
}

// streamProbe records each retired span's name together with whether the
// query had already completed at delivery time.
type streamProbe struct {
	mu    sync.Mutex
	done  *atomic.Bool
	names []string
	late  []string // spans delivered after query completion
}

func (p *streamProbe) SpanRetired(s *obs.Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.names = append(p.names, s.Name)
	if p.done.Load() {
		p.late = append(p.late, s.Name)
	}
}

// TestSpansStreamDuringQuery verifies the SpanSink contract end to end:
// stage spans are delivered incrementally while the query is still
// executing, not materialized afterwards.
func TestSpansStreamDuringQuery(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 21, 120, 40)
	b := buildArray("B<w:int>[j=1,200,20]", 22, 110, 40)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,39,8]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 4, a, b)

	var done atomic.Bool
	probe := &streamProbe{done: &done}
	tr := obs.New("stream")
	tr.AddSink(probe)
	if _, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
		Logical: logical.PlanOptions{Selectivity: 0.5},
		Trace:   tr,
	}); err != nil {
		t.Fatal(err)
	}
	done.Store(true)

	if len(probe.late) != 0 {
		t.Errorf("%d spans delivered only after the query completed: %v", len(probe.late), probe.late)
	}
	seen := make(map[string]bool)
	for _, n := range probe.names {
		seen[n] = true
	}
	for _, stage := range []string{"plan.logical", "map.slices", "plan.physical", "align", "compare"} {
		if !seen[stage] {
			t.Errorf("stage span %q never retired to the sink (got %v)", stage, probe.names)
		}
	}
	// The align span must retire before the compare span: the sink sees
	// the pipeline's progress in stage order, mid-query.
	alignAt, compareAt := -1, -1
	for i, n := range probe.names {
		if n == "align" && alignAt == -1 {
			alignAt = i
		}
		if n == "compare" && compareAt == -1 {
			compareAt = i
		}
	}
	if alignAt == -1 || compareAt == -1 || alignAt > compareAt {
		t.Errorf("align span (idx %d) should retire before compare span (idx %d)", alignAt, compareAt)
	}
}
