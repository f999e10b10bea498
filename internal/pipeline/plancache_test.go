package pipeline_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/stats"
)

// zipfArray ingests n cells whose coordinates follow a Zipf(alpha)
// distribution over the chunk grid — the re-ingest-under-different-skew
// scenario the cache signature must distinguish. Values are unique per
// coordinate so attribute-joined outputs have collision-free coords.
func zipfArray(schema string, seed int64, n int, alpha float64) *array.Array {
	s := array.MustParseSchema(schema)
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(seed))
	d := s.Dims[0]
	chunks := int((d.Extent() + d.ChunkInterval - 1) / d.ChunkInterval)
	w := stats.ZipfWeights(chunks, alpha)
	used := make(map[int64]bool)
	for len(used) < n {
		// Pick a chunk by Zipf weight, then a free coordinate inside it.
		r, ch := rng.Float64(), 0
		for ; ch < chunks-1 && r >= w[ch]; ch++ {
			r -= w[ch]
		}
		base := d.Start + int64(ch)*d.ChunkInterval
		c := base + rng.Int63n(d.ChunkInterval)
		if c > d.End || used[c] {
			continue
		}
		used[c] = true
		a.MustPut([]int64{c}, []array.Value{array.IntValue(c)})
	}
	a.SortAll()
	return a
}

func attrPredVW() join.Predicate {
	return join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
}

// reportsEquivalent compares the determinism-relevant fields of two
// Reports: everything except wall-clock timings and planner labels.
func reportsEquivalent(t *testing.T, tag string, got, want *pipeline.Report) {
	t.Helper()
	if got.Matches != want.Matches {
		t.Errorf("%s: Matches = %d, want %d", tag, got.Matches, want.Matches)
	}
	if got.JoinStats != want.JoinStats {
		t.Errorf("%s: JoinStats = %+v, want %+v", tag, got.JoinStats, want.JoinStats)
	}
	if got.CellsMoved != want.CellsMoved {
		t.Errorf("%s: CellsMoved = %d, want %d", tag, got.CellsMoved, want.CellsMoved)
	}
	if got.AlignTime != want.AlignTime || got.CompareTime != want.CompareTime {
		t.Errorf("%s: modeled times %v/%v, want %v/%v",
			tag, got.AlignTime, got.CompareTime, want.AlignTime, want.CompareTime)
	}
	if got.Selectivity != want.Selectivity {
		t.Errorf("%s: Selectivity = %v, want %v", tag, got.Selectivity, want.Selectivity)
	}
	if !reflect.DeepEqual(cellsOf(got.Output), cellsOf(want.Output)) {
		t.Errorf("%s: output cells differ", tag)
	}
}

// TestPlanCacheHitBitIdentical is the cache's core contract: a cache-hit
// execution returns bit-for-bit identical Results to the cold run that
// populated the entry, at every Parallelism setting.
func TestPlanCacheHitBitIdentical(t *testing.T) {
	a := zipfArray("A<v:int>[i=1,400,25]", 3, 200, 1.0)
	b := zipfArray("B<w:int>[j=1,400,25]", 4, 180, 1.0)
	out := array.MustParseSchema("T<i:int, j:int>[v=1,400,25]")

	for _, par := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			cache := plancache.New()
			run := func() *pipeline.Report {
				c := newCluster(t, 4, a.Clone(), b.Clone())
				rep, err := pipeline.Run(c, "A", "B", attrPredVW(), out, pipeline.Options{
					Cache:       cache,
					Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			cold := run()
			if cold.PlanSource != pipeline.PlanSourceFull {
				t.Fatalf("cold PlanSource = %q, want full", cold.PlanSource)
			}
			hit := run()
			if hit.PlanSource != pipeline.PlanSourceCached {
				t.Fatalf("second run PlanSource = %q, want cached", hit.PlanSource)
			}
			if !reflect.DeepEqual(hit.Physical.Assignment, cold.Physical.Assignment) {
				t.Error("cached assignment differs from the one stored")
			}
			reportsEquivalent(t, "cached-vs-cold", hit, cold)

			s := cache.Stats()
			if s.Hits != 1 || s.Misses != 1 || s.Rejects != 0 {
				t.Errorf("cache stats = %+v, want 1 hit / 1 miss", s)
			}
		})
	}
}

// TestPlanCacheMissOnSkewDrift re-ingests the same schema under a
// different Zipf α: the skew fingerprint changes, so the second query
// must miss instead of replaying a plan computed for other statistics.
func TestPlanCacheMissOnSkewDrift(t *testing.T) {
	cache := plancache.New()
	pred := attrPredVW()
	run := func(alpha float64, seed int64) *pipeline.Report {
		a := zipfArray("A<v:int>[i=1,400,25]", seed, 200, alpha)
		b := zipfArray("B<w:int>[j=1,400,25]", seed+1, 180, alpha)
		c := newCluster(t, 4, a, b)
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	run(0.0, 3)
	rep := run(1.5, 3)
	if rep.PlanSource == pipeline.PlanSourceCached {
		t.Fatal("query after skew drift replayed the cached plan")
	}
	s := cache.Stats()
	if s.Hits != 0 || s.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 misses and no hits", s)
	}
	// Both signatures are stored: rerunning either profile hits.
	for _, alpha := range []float64{0.0, 1.5} {
		if rep := run(alpha, 3); rep.PlanSource != pipeline.PlanSourceCached {
			t.Errorf("rerun at α=%v: PlanSource = %q, want cached", alpha, rep.PlanSource)
		}
	}
}

// TestPlanCacheSignatureSensitivity pins what the signature must react
// to: skew profile, node count, predicate, options — and what it must
// not (a bit-identical re-ingest).
func TestPlanCacheSignatureSensitivity(t *testing.T) {
	base := signatureOf(4, 1.0, pipeline.Options{})
	if again := signatureOf(4, 1.0, pipeline.Options{}); again != base {
		t.Error("bit-identical re-ingest changed the signature")
	}
	if signatureOf(8, 1.0, pipeline.Options{}) == base {
		t.Error("node count not in the signature")
	}
	if signatureOf(4, 0.0, pipeline.Options{}) == base {
		t.Error("skew profile not in the signature")
	}
	if signatureOf(4, 1.0, pipeline.Options{Planner: physical.TabuPlanner{}}) == base {
		t.Error("planner choice not in the signature")
	}
	if signatureOf(4, 1.0, pipeline.Options{Selectivity: 0.5}) == base {
		t.Error("caller selectivity not in the signature")
	}
}

// signatureOf is the plan-cache signature of a self-join-shaped query
// over two Zipf(alpha) arrays loaded round-robin on k nodes.
func signatureOf(k int, alpha float64, opt pipeline.Options) plancache.Signature {
	mk := func(seed int64) *array.Array {
		return zipfArray("A<v:int>[i=1,400,25]", seed, 200, alpha)
	}
	la, lb := mk(3), mk(4)
	lb.Schema.Name = "B"
	c := cluster.MustNew(k)
	dl := c.Load(la, cluster.RoundRobin)
	dr := c.Load(lb, cluster.RoundRobin)
	return pipeline.PlanSignature(c, dl, dr,
		join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "v"}}}, nil, opt)
}

// TestPlanCacheSignatureKeysPlannerSettings: every planner setting that
// can change the assignment splits the cache, and the worker count,
// which never does, does not.
func TestPlanCacheSignatureKeysPlannerSettings(t *testing.T) {
	withPlanner := func(p physical.Planner) plancache.Signature {
		return signatureOf(4, 1.0, pipeline.Options{Planner: p})
	}
	if withPlanner(physical.ILPPlanner{Budget: time.Millisecond}) == withPlanner(physical.ILPPlanner{Budget: 5 * time.Second}) {
		t.Error("ILP budget not in the signature")
	}
	if withPlanner(physical.GreedyPlanner{Epsilon: 0.1}) == withPlanner(physical.GreedyPlanner{Epsilon: 0.2}) {
		t.Error("greedy epsilon not in the signature")
	}
	if withPlanner(physical.GreedyPlanner{Fallback: physical.TabuPlanner{}}) == withPlanner(physical.GreedyPlanner{Fallback: physical.TabuPlanner{MaxRounds: 2}}) {
		t.Error("greedy fallback settings not in the signature")
	}
	// Workers never changes a plan, so it must not split the cache.
	if withPlanner(physical.TabuPlanner{Workers: 1}) != withPlanner(physical.TabuPlanner{Workers: 8}) {
		t.Error("Tabu worker count split the signature")
	}
}

// TestPlanCacheRevalidateReject seeds a stale entry under the query's
// true signature (the situation a fingerprint collision would produce):
// the hit must be rejected by re-costing, counted, evicted, and the
// query must fall back to fresh planning with correct results.
func TestPlanCacheRevalidateReject(t *testing.T) {
	a := zipfArray("A<v:int>[i=1,400,25]", 3, 200, 1.2)
	b := zipfArray("B<w:int>[j=1,400,25]", 4, 180, 1.2)
	out := array.MustParseSchema("T<i:int, j:int>[v=1,400,25]")
	pred := attrPredVW()

	// Reference run without any cache.
	cRef := newCluster(t, 4, a.Clone(), b.Clone())
	want, err := pipeline.Run(cRef, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Populate a cache, then poison the stored entry's model so its
	// re-costed total drifts far past the threshold.
	cache := plancache.New()
	c1 := newCluster(t, 4, a.Clone(), b.Clone())
	if _, err := pipeline.Run(c1, "A", "B", pred, out, pipeline.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	dl, _ := c1.Catalog.Lookup("A")
	dr, _ := c1.Catalog.Lookup("B")
	sig := pipeline.PlanSignature(c1, dl, dr, pred, out, pipeline.Options{Cache: cache})
	e, ok := cache.Lookup(sig)
	if !ok {
		t.Fatal("populated cache misses its own signature")
	}
	stale := *e
	stale.Model.Total /= 100 // pretends to be 100x cheaper than reality
	cache.Store(sig, &stale)

	c2 := newCluster(t, 4, a.Clone(), b.Clone())
	got, err := pipeline.Run(c2, "A", "B", pred, out, pipeline.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got.PlanSource == pipeline.PlanSourceCached {
		t.Fatal("poisoned entry survived revalidation")
	}
	s := cache.Stats()
	if s.Rejects != 1 {
		t.Errorf("Rejects = %d, want 1", s.Rejects)
	}
	reportsEquivalent(t, "post-reject", got, want)

	// The replanning query must have replaced the stale entry: the next
	// run hits and revalidates cleanly.
	c3 := newCluster(t, 4, a.Clone(), b.Clone())
	again, err := pipeline.Run(c3, "A", "B", pred, out, pipeline.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if again.PlanSource != pipeline.PlanSourceCached {
		t.Errorf("post-reject rerun PlanSource = %q, want cached", again.PlanSource)
	}
}

// TestGreedyPolicyMatchesFullPlanning: the greedy fast path must return
// the same query answer and the same logical plan as full planning: the
// greedy planner is a physical planner, so logical planning enumerates
// every plan either way. Output coordinates here are genuine data
// (dimension values and unique attribute keys), so the comparison is
// assignment-independent and bit-for-bit.
func TestGreedyPolicyMatchesFullPlanning(t *testing.T) {
	a := zipfArray("A<v:int>[i=1,400,25]", 3, 200, 1.0)
	b := zipfArray("B<w:int>[j=1,400,25]", 4, 180, 1.0)
	out := array.MustParseSchema("T<i:int, j:int>[v=1,400,25]")

	cases := []struct {
		name string
		pred join.Predicate
		out  *array.Schema
	}{
		{"attr-join", attrPredVW(), out},
		{"dim-join", join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "j"}}}, nil},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4, 0} {
			t.Run(fmt.Sprintf("%s/par=%d", tc.name, par), func(t *testing.T) {
				run := func(planner physical.Planner) *pipeline.Report {
					c := newCluster(t, 4, a.Clone(), b.Clone())
					rep, err := pipeline.Run(c, "A", "B", tc.pred, tc.out, pipeline.Options{
						Planner:     planner,
						Parallelism: par,
					})
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				full := run(physical.TabuPlanner{})
				if full.PlanSource != pipeline.PlanSourceFull {
					t.Fatalf("full PlanSource = %q", full.PlanSource)
				}
				fast := run(physical.GreedyPlanner{Fallback: physical.TabuPlanner{}})
				if fast.PlanSource != pipeline.PlanSourceGreedy && fast.PlanSource != pipeline.PlanSourceFull {
					t.Fatalf("fast PlanSource = %q", fast.PlanSource)
				}
				if got, want := fast.Logical.Describe(), full.Logical.Describe(); got != want || fast.Logical.Cost != full.Logical.Cost {
					t.Errorf("logical plan = %s (%v), want %s (%v)", got, fast.Logical.Cost, want, full.Logical.Cost)
				}
				if !reflect.DeepEqual(fast.Profile().Candidates, full.Profile().Candidates) {
					t.Errorf("candidates = %+v, want the full enumeration %+v", fast.Profile().Candidates, full.Profile().Candidates)
				}
				if fast.Matches != full.Matches {
					t.Errorf("Matches = %d, want %d", fast.Matches, full.Matches)
				}
				if fast.JoinStats.Matches != full.JoinStats.Matches {
					t.Errorf("JoinStats.Matches = %d, want %d", fast.JoinStats.Matches, full.JoinStats.Matches)
				}
				if !reflect.DeepEqual(cellsOf(fast.Output), cellsOf(full.Output)) {
					t.Error("greedy-path output cells differ from full planning")
				}
			})
		}
	}
}

// TestGreedyPolicyDeterministicAcrossParallelism: the fast path obeys
// the engine's parallelism-determinism contract.
func TestGreedyPolicyDeterministicAcrossParallelism(t *testing.T) {
	a := zipfArray("A<v:int>[i=1,400,25]", 7, 200, 1.4)
	b := zipfArray("B<w:int>[j=1,400,25]", 8, 180, 1.4)
	var want *pipeline.Report
	for _, par := range []int{1, 4, 0} {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", attrPredVW(), nil, pipeline.Options{
			Planner:     physical.GreedyPlanner{Fallback: physical.MinBandwidthPlanner{}},
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		if rep.PlanSource != want.PlanSource || rep.PlanRegret != want.PlanRegret {
			t.Errorf("par=%d: PlanSource/Regret %s/%v, want %s/%v",
				par, rep.PlanSource, rep.PlanRegret, want.PlanSource, want.PlanRegret)
		}
		reportsEquivalent(t, fmt.Sprintf("par=%d", par), rep, want)
	}
}

// TestPlanCacheWithPolicyCachesGreedyPlans: cache and greedy planner
// compose — the first query plans greedily, the second replays it from
// the cache.
func TestPlanCacheWithPolicyCachesGreedyPlans(t *testing.T) {
	a := zipfArray("A<v:int>[i=1,400,25]", 3, 200, 1.0)
	b := zipfArray("B<w:int>[j=1,400,25]", 4, 180, 1.0)
	cache := plancache.New()
	run := func() *pipeline.Report {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", attrPredVW(), nil, pipeline.Options{
			Cache:   cache,
			Planner: physical.GreedyPlanner{Fallback: physical.MinBandwidthPlanner{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run()
	if first.PlanSource != pipeline.PlanSourceGreedy && first.PlanSource != pipeline.PlanSourceFull {
		t.Fatalf("first PlanSource = %q", first.PlanSource)
	}
	second := run()
	if second.PlanSource != pipeline.PlanSourceCached {
		t.Fatalf("second PlanSource = %q, want cached", second.PlanSource)
	}
	reportsEquivalent(t, "cached-vs-greedy", second, first)
}
