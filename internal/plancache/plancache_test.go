package plancache

import (
	"math/rand"
	"testing"

	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
)

func testProblem(t *testing.T, seed int64, n, k int) *physical.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := 0; i < n; i++ {
		l := make([]int64, k)
		r := make([]int64, k)
		for j := 0; j < k; j++ {
			l[j] = rng.Int63n(200)
			r[j] = rng.Int63n(200)
		}
		left[i], right[i] = l, r
	}
	pr, err := physical.NewProblem(k, join.Hash, left, right, physical.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New()
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Store("a", &Entry{Source: "full"})
	e, ok := c.Lookup("a")
	if !ok || e.Source != "full" {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("hit on missing signature")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Rejects != 0 {
		t.Errorf("Stats = %+v, want 1 hit, 2 misses", s)
	}
	c.RecordReject("a")
	if c.Stats().Rejects != 1 {
		t.Error("RecordReject not counted")
	}
	if _, ok := c.Lookup("a"); ok {
		t.Error("rejected entry not evicted")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after eviction", c.Len())
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Store("a", &Entry{})
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.RecordReject("a")
	if c.Stats() != (Stats{}) || c.Len() != 0 {
		t.Error("nil cache should have zero stats")
	}
}

func TestRevalidateAcceptsUnchangedProblem(t *testing.T) {
	pr := testProblem(t, 1, 32, 4)
	res, err := physical.GreedyPlanner{}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Assignment: res.Assignment, Model: res.Model}
	bd, ok := Revalidate(e, pr)
	if !ok {
		t.Fatal("unchanged problem rejected")
	}
	if bd != res.Model {
		t.Errorf("re-cost %+v differs from stored %+v on identical stats", bd, res.Model)
	}
}

func TestRevalidateRejectsDriftAndShapeMismatch(t *testing.T) {
	pr := testProblem(t, 1, 32, 4)
	res, err := physical.GreedyPlanner{}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	// A stale entry whose stored cost pretends to be far cheaper than
	// the assignment's true cost on the current data: drift past 5%.
	stale := &Entry{Assignment: res.Assignment, Model: physical.Breakdown{Total: res.Model.Total / 10}}
	if _, ok := Revalidate(stale, pr); ok {
		t.Error("10x drift accepted")
	}
	// Wrong shape: assignment for another unit count.
	short := &Entry{Assignment: res.Assignment[:8], Model: res.Model}
	if _, ok := Revalidate(short, pr); ok {
		t.Error("truncated assignment accepted")
	}
	// Node out of range for a smaller cluster.
	pr2 := testProblem(t, 1, 32, 2)
	if _, ok := Revalidate(&Entry{Assignment: res.Assignment, Model: res.Model}, pr2); ok {
		t.Error("assignment naming node 3 accepted on a 2-node problem")
	}
	if _, ok := Revalidate(nil, pr); ok {
		t.Error("nil entry accepted")
	}
}
