package join

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
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

// intRun is a run over a store of one int64 key column.
func intRun(keys []int64) batch.Run {
	store := &batch.Batch{Cols: []batch.Col{{Type: array.TypeInt64, Ints: keys}}}
	return batch.Run{Store: store, Hi: len(keys)}
}

// benchRun is benchTuples' keys as a run of an int64 key
// column, the layout the columnar kernels read.
func benchRun(ts []Tuple) batch.Run {
	keys := make([]int64, len(ts))
	for i := range ts {
		keys[i] = ts[i].Key[0].Int
	}
	return intRun(keys)
}

// cellRun is a run of n distinct cells of a 256×256 chunk in C-order,
// keyed by both coordinates: the side of one of merge_skew's join
// units.
func cellRun(n int, seed int64) batch.Run {
	rng := rand.New(rand.NewSource(seed))
	cells := rng.Perm(256 * 256)[:n]
	slices.Sort(cells)
	i, j := make([]int64, n), make([]int64, n)
	for r, c := range cells {
		i[r], j[r] = int64(c/256), int64(c%256)
	}
	store := &batch.Batch{Cols: []batch.Col{{Type: array.TypeInt64, Ints: i}, {Type: array.TypeInt64, Ints: j}}}
	return batch.Run{Store: store, Hi: n}
}

// columnarCase is one kernel over one pair of sides.
type columnarCase struct {
	name        string
	alg         Algorithm
	nkey        int
	left, right batch.Run
}

// columnarCases are BenchmarkColumnarJoin's: the kernels on the sides
// the Tuple benchmarks above use, and the merge kernel on merge_skew's
// unit shape. Both merge cases' keys strictly ascend, so they take the
// typed walk (mergeInts), one key and two.
func columnarCases() []columnarCase {
	return []columnarCase{
		{"hash", Hash, 1, benchRun(benchTuples(100_000, false, 1)), benchRun(benchTuples(100_000, false, 2))},
		{"merge", Merge, 1, benchRun(benchTuples(100_000, true, 1)), benchRun(benchTuples(100_000, true, 2))},
		{"nestedloop", NestedLoop, 1, benchRun(benchTuples(2_000, false, 1)), benchRun(benchTuples(2_000, false, 2))},
		{"merge/ascending", Merge, 2, cellRun(400, 1), cellRun(400, 2)},
	}
}

// BenchmarkColumnarJoin times the engine's kernels, match lists
// included (columnarCases).
func BenchmarkColumnarJoin(b *testing.B) {
	for _, bc := range columnarCases() {
		b.Run(bc.name, func(b *testing.B) {
			var m Matches
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.L, m.R = m.L[:0], m.R[:0]
				if _, err := RunColumns(bc.alg, bc.left, bc.right, bc.nkey, nil, &m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.left.Len()+bc.right.Len()), "cells")
		})
	}
}

// TestColumnarMergeZeroAllocs gates BenchmarkColumnarJoin's merge
// bodies: once the match list has grown and the scratch is pooled, a
// fixed number of merges allocate nothing, the least of three counts
// with the collector off, and the count sees an injected allocation
// per merge.
func TestColumnarMergeZeroAllocs(t *testing.T) {
	const runs = 20
	for _, bc := range columnarCases() {
		if bc.alg != Merge {
			continue
		}
		var m Matches
		merge := func() {
			m.L, m.R = m.L[:0], m.R[:0]
			if _, err := RunColumns(Merge, bc.left, bc.right, bc.nkey, nil, &m); err != nil {
				t.Fatal(err)
			}
		}
		count := func(f func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		merge()
		gc := debug.SetGCPercent(-1)
		got := count(merge)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, count(merge))
		}
		injected := count(func() {
			merge()
			allocSink.Store(new([64]byte))
		})
		debug.SetGCPercent(gc)
		if got != 0 {
			t.Errorf("%s: %d merges made %d allocations, want 0", bc.name, runs, got)
		}
		if injected < runs {
			t.Errorf("%s: %d merges with an injected allocation each counted %d allocations", bc.name, runs, injected)
		}
	}
}

// hashIndexCycle is one round-trip of a 512-row hash index through its
// pool: the body BenchmarkScratchPoolsConcurrent and
// TestScratchPoolsZeroAllocs both run.
func hashIndexCycle() {
	const n = 512
	idx := getHashIndex(n)
	for i := 0; i < n; i++ {
		idx.insert(i, uint64(i)*0x9e3779b97f4a7c15)
	}
	putHashIndex(idx)
}

// BenchmarkScratchPoolsConcurrent times the hash-index scratch pool
// under concurrent compare workers — the multi-query serving shape — as
// a process-shared par.Pool instead of a sync.Pool.
// TestScratchPoolsZeroAllocs holds its body to 0 allocations.
func BenchmarkScratchPoolsConcurrent(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			hashIndexCycle()
		}
	})
}

// allocsContended counts the heap allocations of iters calls of body on
// each of workers goroutines. The goroutines start before the count and
// spin until it begins, and the count spins until they finish: parking
// a goroutine can allocate its wait record, which is the runtime's
// allocation, not the body's. The caller turns the collector off.
func allocsContended(workers, iters int, body func()) uint64 {
	var start atomic.Bool
	var done atomic.Int32
	for w := 0; w < workers; w++ {
		go func() {
			for !start.Load() {
				runtime.Gosched()
			}
			for i := 0; i < iters; i++ {
				body()
			}
			done.Add(1)
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start.Store(true)
	for done.Load() < int32(workers) {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocSink keeps the gate's injected allocations on the heap.
var allocSink atomic.Pointer[[64]byte]

// TestScratchPoolsZeroAllocs gates BenchmarkScratchPoolsConcurrent's
// body, called not copied: one goroutine per core makes a fixed number
// of round-trips, counted with runtime.ReadMemStats and the collector
// off, after a warm-up pass has filled the pool for every goroutine.
// At GOMAXPROCS 1, 2 and 8 the least of three counts must be 0 per
// round-trip, the ceiling testing.Benchmark's allocs/op held it to:
// goroutines parked on the pool's lock can make the runtime allocate
// their wait records, a handful per count at most. The count must also
// see one injected allocation per round-trip.
func TestScratchPoolsZeroAllocs(t *testing.T) {
	const iters = 1000
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		allocsContended(procs, iters, hashIndexCycle) // warm-up
		got := allocsContended(procs, iters, hashIndexCycle)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, allocsContended(procs, iters, hashIndexCycle))
		}
		injected := allocsContended(procs, iters, func() {
			hashIndexCycle()
			allocSink.Store(new([64]byte))
		})
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		ops := uint64(procs * iters)
		if got/ops != 0 {
			t.Errorf("GOMAXPROCS=%d: %d round-trips made %d allocations, want 0 per round-trip", procs, ops, got)
		}
		if injected/ops < 1 {
			t.Errorf("GOMAXPROCS=%d: %d round-trips with an injected allocation each counted %d allocations", procs, ops, injected)
		}
	}
}
