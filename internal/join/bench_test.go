package join

import (
	"math/rand"
	"runtime"
	"testing"

	"shufflejoin/internal/array"
)

func benchTuples(n int, sorted bool, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Tuple, n)
	for i := range ts {
		k := rng.Int63n(int64(n) * 2)
		if sorted {
			k = int64(i * 2)
		}
		ts[i] = Tuple{Key: []array.Value{array.IntValue(k)}}
	}
	return ts
}

func BenchmarkHashJoin(b *testing.B) {
	left := benchTuples(100_000, false, 1)
	right := benchTuples(100_000, false, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashJoin(left, right, nil)
	}
	b.ReportMetric(float64(len(left)+len(right)), "cells")
}

func BenchmarkMergeJoin(b *testing.B) {
	left := benchTuples(100_000, true, 3)
	right := benchTuples(100_000, true, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeJoin(left, right, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(left)+len(right)), "cells")
}

func BenchmarkNestedLoopJoin(b *testing.B) {
	left := benchTuples(2_000, false, 5)
	right := benchTuples(2_000, false, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NestedLoopJoin(left, right, nil)
	}
}

func BenchmarkSortTuples(b *testing.B) {
	src := benchTuples(100_000, false, 7)
	buf := make([]Tuple, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		SortTuples(buf)
	}
}

// BenchmarkScratchPoolsConcurrent is the pool gate for this package:
// the hash-index scratch pool must hold steady-state 0 allocs/op with
// concurrent compare workers — the multi-query serving shape — as a
// process-shared par.Pool instead of a sync.Pool.
// TestScratchPoolsZeroAllocs enforces it.
func BenchmarkScratchPoolsConcurrent(b *testing.B) {
	const n = 512
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx := getHashIndex(n)
			for i := 0; i < n; i++ {
				idx.insert(i, uint64(i)*0x9e3779b97f4a7c15)
			}
			putHashIndex(idx)
		}
	})
}

// TestScratchPoolsZeroAllocs is the gate on BenchmarkScratchPoolsConcurrent: the
// benchmark body, called not copied, must read 0 allocs/op on every core
// count.
func TestScratchPoolsZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res := testing.Benchmark(BenchmarkScratchPoolsConcurrent)
		runtime.GOMAXPROCS(prev)
		if res.N == 0 {
			t.Fatalf("GOMAXPROCS=%d: BenchmarkScratchPoolsConcurrent did not complete", procs)
		}
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkScratchPoolsConcurrent = %d allocs/op, want 0", procs, a)
		}
	}
}
