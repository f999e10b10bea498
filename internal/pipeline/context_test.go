package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/sched"
)

// TestPreCanceledContext pins the stage-boundary check: an already-
// canceled context fails the query before any stage runs, reporting
// context.Canceled via errors.Is.
func TestPreCanceledContext(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlineExceeded pins the timeout path: an expired deadline
// surfaces as context.DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextIgnoredWhenDone pins that a live context changes nothing: a
// query with a background context and one with no context produce
// identical results.
func TestContextIgnoredWhenDone(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	run := func(opt pipeline.Options) *pipeline.Report {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(pipeline.Options{})
	ctxed := run(pipeline.Options{Ctx: context.Background()})
	reportsEquivalent(t, "ctx-vs-none", ctxed, plain)
}

// TestGatedEquivalence is the scheduler's determinism boundary: a query
// executed under a sched.Ticket produces bit-identical results to an
// ungated run.
func TestGatedEquivalence(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	s := sched.New(sched.Config{MaxQueries: 2, PoolBytes: 1 << 30})
	run := func(gate pipeline.Gate) *pipeline.Report {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Ctx:  context.Background(),
			Gate: gate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil)
	tk, err := s.Admit(context.Background(), sched.Interactive, 0, "gated")
	if err != nil {
		t.Fatal(err)
	}
	gated := run(tk)
	tk.Done()
	reportsEquivalent(t, "gated-vs-plain", gated, plain)
	if gated.MemoryOverflowBytes != 0 {
		t.Fatalf("a %d-byte grant overflowed by %d bytes", tk.MemoryBytes(), gated.MemoryOverflowBytes)
	}
	if snap := s.Snapshot(); snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Fatalf("grant leaked: %+v", snap)
	}
}

// TestGateGrantBudgetsQuery pins where an unbudgeted gated query's memory
// budget comes from: the admission grant. A grant below the query's peak
// is counted as overflow exactly like an explicit MemoryBudget of the same
// size, and the output does not change.
func TestGateGrantBudgetsQuery(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	run := func(opt pipeline.Options) *pipeline.Report {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	s := sched.New(sched.Config{MaxQueries: 1, PoolBytes: 256})
	tk, err := s.Admit(context.Background(), sched.Scan, 0, "gated")
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Done()
	plain := run(pipeline.Options{})
	gated := run(pipeline.Options{Gate: tk})
	reportsEquivalent(t, "gated-vs-plain", gated, plain)
	grant := tk.MemoryBytes()
	if grant != 256 || gated.PeakBatchBytes <= grant {
		t.Fatalf("fixture: grant %d, peak %d; want a 256-byte grant below the peak", grant, gated.PeakBatchBytes)
	}
	if want := gated.PeakBatchBytes - grant; gated.MemoryOverflowBytes != want {
		t.Fatalf("MemoryOverflowBytes = %d, want peak %d - grant %d = %d",
			gated.MemoryOverflowBytes, gated.PeakBatchBytes, grant, want)
	}
	// An explicit budget wins over the grant.
	if own := run(pipeline.Options{Gate: tk, MemoryBudget: 1 << 30}); own.MemoryOverflowBytes != 0 {
		t.Fatalf("explicit 1 GiB budget overflowed by %d bytes", own.MemoryOverflowBytes)
	}
}

// TestConcurrentColdMissesEachPlan: K concurrent queries on one cold
// signature never wait on another's plan. Each either hits or plans as an
// uncached query would, all return the same answer, and once they are
// done the signature hits.
func TestConcurrentColdMissesEachPlan(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	cache := plancache.New()
	run := func() (*pipeline.Report, error) {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		return pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Cache: cache})
	}

	const K = 8
	reps := make([]*pipeline.Report, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = run()
		}(i)
	}
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if o := reps[i].CacheOutcome; o != "hit" && o != "miss" {
			t.Fatalf("query %d: CacheOutcome = %q", i, o)
		}
		reportsEquivalent(t, fmt.Sprintf("query %d vs 0", i), reps[i], reps[0])
	}
	// How many of the K planned depends on the interleaving; each one
	// counted exactly one lookup.
	if st := cache.Stats(); st.Hits+st.Misses != K || st.Misses < 1 {
		t.Fatalf("stats = %+v, want %d lookups with at least one miss", st, K)
	}
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheOutcome != "hit" {
		t.Fatalf("follow-up CacheOutcome = %q, want hit", rep.CacheOutcome)
	}
	reportsEquivalent(t, "follow-up vs 0", rep, reps[0])
}

// errorStage fails its query with an ordinary error.
type errorStage struct{}

func (errorStage) Name() string                     { return "error-stage" }
func (errorStage) Run(*pipeline.QueryContext) error { return errors.New("injected error") }

// TestFailedQueryStoresNothing: a query that fails after its cache miss
// stores no plan, so the next query with the same signature misses and
// plans, and the one after that hits.
func TestFailedQueryStoresNothing(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	cache := plancache.New()

	c := newCluster(t, 4, a.Clone(), b.Clone())
	dl, err := c.Catalog.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Catalog.Lookup("B")
	if err != nil {
		t.Fatal(err)
	}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{Cache: cache})
	if err := pipeline.Execute(qc, []pipeline.Stage{pipeline.LogicalPlan{}, errorStage{}}); err == nil {
		t.Fatal("failing stage returned no error")
	}
	if qc.Report.CacheOutcome != "miss" {
		t.Fatalf("failing query CacheOutcome = %q, want miss", qc.Report.CacheOutcome)
	}

	for _, want := range []string{"miss", "hit"} {
		rep, err := pipeline.Run(newCluster(t, 4, a.Clone(), b.Clone()), "A", "B", pred, nil,
			pipeline.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheOutcome != want {
			t.Fatalf("CacheOutcome = %q, want %s", rep.CacheOutcome, want)
		}
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 hit", s)
	}
}

// TestPanicDoesNotWedgePlanCache: a query that panics after its cache
// miss leaves nothing behind that a later query with the same signature
// waits on. The follow-up plans afresh well inside its deadline.
func TestPanicDoesNotWedgePlanCache(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	cache := plancache.New()

	c := newCluster(t, 4, a.Clone(), b.Clone())
	dl, err := c.Catalog.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Catalog.Lookup("B")
	if err != nil {
		t.Fatal(err)
	}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{Cache: cache})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic did not propagate to the caller")
			}
		}()
		pipeline.Execute(qc, []pipeline.Stage{pipeline.LogicalPlan{}, panicStage{}})
	}()
	if qc.Report.CacheOutcome != "miss" {
		t.Fatalf("panicking query CacheOutcome = %q, want miss", qc.Report.CacheOutcome)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := pipeline.Run(newCluster(t, 4, a.Clone(), b.Clone()), "A", "B", pred, nil,
		pipeline.Options{Cache: cache, Ctx: ctx})
	if err != nil {
		t.Fatalf("same-signature query after the panic: %v", err)
	}
	if rep.CacheOutcome != "miss" {
		t.Fatalf("follow-up CacheOutcome = %q, want miss (the panicking query stored nothing)", rep.CacheOutcome)
	}
}

// countdownCtx is a context that is never done until armed; once armed,
// Err reports context.Canceled from its (left+1)-th call on.
type countdownCtx struct {
	context.Context
	armed atomic.Bool
	left  atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.armed.Load() && c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// armStage arms its query's countdownCtx to let the next calls to Err
// pass and cancel the rest.
type armStage struct {
	ctx   *countdownCtx
	calls int64
}

func (armStage) Name() string { return "arm-cancel" }

func (s armStage) Run(*pipeline.QueryContext) error {
	s.ctx.left.Store(s.calls)
	s.ctx.armed.Store(true)
	return nil
}

// TestCanceledQueryReleasesMemory: a query canceled after Align, before
// Compare has retired every unit, closes its ledger (pipeline.Ledger):
// its budget reads 0, its flight trail credits what it charged, and
// the store pool holds what it held. The
// stage inserted before Compare arms the context: with no call let
// through, Execute's check before Compare cancels the query between
// Align and Compare; with 3, that check and the first two units pass
// (Parallelism 1) and the third unit's check cancels it mid-Compare.
func TestCanceledQueryReleasesMemory(t *testing.T) {
	a := buildArray("A<v:int>[i=1,4000,400]", 5, 3000, 300)
	b := buildArray("B<w:int>[j=1,4000,400]", 6, 3200, 300)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	for _, tc := range []struct {
		name  string
		calls int64
	}{
		{"between-align-and-compare", 0},
		{"mid-compare", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4, a.Clone(), b.Clone())
			dl, _ := c.Catalog.Lookup("A")
			dr, _ := c.Catalog.Lookup("B")
			opt := pipeline.Options{Selectivity: 0.5, Parallelism: 1}
			// The same query, run to completion first, warms the pools.
			if _, err := pipeline.RunDistributed(c, dl, dr, pred, nil, opt); err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: context.Background()}
			opt.Ctx = ctx
			qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, opt)
			st := pipeline.DefaultStages()
			stages := append(append(append([]pipeline.Stage{}, st[:4]...), armStage{ctx, tc.calls}), st[4:]...)
			mark := flight.Default.Stats().Recorded
			ledger := pipeline.OpenLedger()
			if err := pipeline.Execute(qc, stages); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if last := qc.Report.Stages[len(qc.Report.Stages)-1].Stage; (tc.calls > 0) != (last == (pipeline.Compare{}).Name()) {
				t.Fatalf("the query stopped after %q", last)
			}
			if n := len(qc.Report.Physical.Assignment); n <= 2 {
				t.Fatalf("fixture: %d join units, want more than the 2 that run", n)
			}
			if !chargedSince(mark) {
				t.Error("the flight trail holds no budget charge")
			}
			if err := ledger.Check(qc); err != nil {
				t.Error(err)
			}
		})
	}
}
