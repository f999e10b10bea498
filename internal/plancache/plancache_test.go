package plancache

import (
	"math/rand"
	"sync"
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
}

// TestConcurrentMissesLastStoreWins pins the miss contract: concurrent
// misses on one signature neither block nor lose a count, each Stores its
// own plan, and the signature then holds whichever Store came last.
func TestConcurrentMissesLastStoreWins(t *testing.T) {
	c := New()
	const K = 8
	stored := make([]*Entry, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		stored[i] = &Entry{Source: "full"}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := c.Lookup("sig"); !ok {
				c.Store("sig", stored[i])
			}
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != K || s.Misses < 1 {
		t.Fatalf("Stats = %+v, want %d lookups with at least one miss", s, K)
	}
	e, ok := c.Lookup("sig")
	if !ok {
		t.Fatal("no entry after concurrent stores")
	}
	var found bool
	for _, want := range stored {
		found = found || e == want
	}
	if !found {
		t.Fatal("entry is none of the stored plans")
	}

	last := &Entry{Source: "greedy"}
	c.Store("sig", last)
	if e, ok := c.Lookup("sig"); !ok || e != last {
		t.Fatalf("Lookup after a later Store = %p, %v, want %p", e, ok, last)
	}
}

// TestNilCacheIsAlwaysMiss pins the nil-cache tolerance contract: every
// method is safe on a nil *Cache, which never hits and counts nothing.
func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Store("a", &Entry{})
	if e, ok := c.Lookup("a"); ok || e != nil {
		t.Fatalf("nil cache Lookup = %v, %v, want a miss", e, ok)
	}
	c.RecordReject("a")
	if c.Stats() != (Stats{}) {
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
