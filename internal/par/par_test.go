package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestDoRunsEveryWorker(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		seen := make([]atomic.Int64, w)
		Do(w, func(id int) { seen[id].Add(1) })
		for id := range seen {
			if seen[id].Load() != 1 {
				t.Errorf("workers=%d: worker %d ran %d times", w, id, seen[id].Load())
			}
		}
	}
}

// Property: ForEach visits every index exactly once, for any size and
// worker count.
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	f := func(n uint8, workers uint8) bool {
		size := int(n % 100)
		w := int(workers%8) + 1
		visits := make([]atomic.Int64, size)
		ForEach(size, w, func(i, _ int) { visits[i].Add(1) })
		for i := range visits {
			if visits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: ForChunks covers [0, n) with disjoint contiguous ranges.
func TestForChunksPartitionsRange(t *testing.T) {
	f := func(n uint8, workers uint8) bool {
		size := int(n % 200)
		w := int(workers%8) + 1
		visits := make([]atomic.Int64, size)
		ForChunks(size, w, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		for i := range visits {
			if visits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
