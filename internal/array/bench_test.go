package array

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func benchArray(b *testing.B, n int64) *Array {
	b.Helper()
	s := &Schema{
		Name:  "A",
		Dims:  []Dimension{{Name: "i", Start: 1, End: n, ChunkInterval: (n + 31) / 32}},
		Attrs: []Attribute{{Name: "v", Type: TypeInt64}},
	}
	a := MustNew(s)
	rng := rand.New(rand.NewSource(1))
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []Value{IntValue(rng.Int63())})
	}
	return a
}

func BenchmarkArrayPut(b *testing.B) {
	s := MustParseSchema("A<v:int>[i=1,10000000,100000]")
	a := MustNew(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord := int64(i%10_000_000) + 1
		a.MustPut([]int64{coord}, []Value{IntValue(int64(i))})
	}
}

func BenchmarkArrayScan(b *testing.B) {
	a := benchArray(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		a.Scan(func([]int64, []Value) bool { n++; return true })
		if n != 200_000 {
			b.Fatal("scan miscount")
		}
	}
}

func BenchmarkValueHashKey(b *testing.B) {
	vals := []Value{IntValue(1234567), FloatValue(3.25), StringValue("shipping-lane")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vals[i%3].HashKey()
	}
}

var (
	keySink  ChunkKey
	keysSink []ChunkKey
)

// Each gated benchmark is a set-up that returns its measured loop, so
// BenchmarkX and TestChunkKeyAllocGates time and count the same region.

// chunkKeyOfLoop keys 3-D cells: per-dimension arithmetic only.
func chunkKeyOfLoop() func(n int) error {
	s := MustParseSchema("K<v:int>[i=1,1000,10, j=-500,500,7, k=0,99,4]")
	rng := rand.New(rand.NewSource(4))
	coords := make([][]int64, 64)
	for n := range coords {
		coords[n] = []int64{1 + rng.Int63n(1000), -500 + rng.Int63n(1001), rng.Int63n(100)}
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			keySink += ChunkKeyOf(s, coords[i&63])
		}
		return nil
	}
}

// putExistingChunkLoop puts into a chunk that already exists, in C-order
// so the sortedness check runs on every cell. The chunk is emptied
// (capacity kept) every 1024 cells to bound memory.
func putExistingChunkLoop() func(n int) error {
	a := MustNew(MustParseSchema("P<v:int, x:float>[i=1,64,64, j=1,64,64]"))
	a.MustPut([]int64{1, 1}, []Value{IntValue(0), FloatValue(0)})
	ch := a.Chunks[0]
	return func(n int) error {
		for i := 0; i < n; i++ {
			k := int64(i & 1023)
			if k == 0 {
				for d := range ch.Coords {
					ch.Coords[d] = ch.Coords[d][:0]
				}
				ch.Cols[0].Ints, ch.Cols[1].Fs = ch.Cols[0].Ints[:0], ch.Cols[1].Fs[:0]
			}
			if err := a.Put([]int64{1 + k/32, 1 + k%32}, []Value{IntValue(k), FloatValue(float64(k))}); err != nil {
				return err
			}
		}
		if len(a.Chunks) != 1 || !ch.Sorted {
			return errors.New("Put left the one sorted chunk")
		}
		return nil
	}
}

// sortedKeysLoop lists the keys of a 32×32 grid of stored chunks,
// merge_skew's shape.
func sortedKeysLoop() func(n int) error {
	a := MustNew(MustParseSchema("G<v:int>[i=1,1024,32, j=1,1024,32]"))
	for i := int64(1); i <= 1024; i += 32 {
		for j := int64(1); j <= 1024; j += 32 {
			a.MustPut([]int64{i, j}, []Value{IntValue(i * j)})
		}
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			keysSink = a.SortedKeys()
		}
		return nil
	}
}

// sortRunsChunk is hash_hot's output shape: a 1-D row-numbered chunk
// written by four nodes, each an ascending run of every fourth row
// number, with two integer attributes.
func sortRunsChunk(n int) *Chunk {
	ch := NewChunk(0, 1, []ScalarType{TypeInt64, TypeInt64})
	for node := int64(0); node < 4; node++ {
		for row := node; row < int64(n); row += 4 {
			ch.AppendCell([]int64{row}, []Value{IntValue(row * 7), IntValue(row * 11)})
		}
	}
	return ch
}

// sortRandomChunk is a 2-D chunk of n cells at random coordinates, with
// duplicates, and one integer attribute.
func sortRandomChunk(n int) *Chunk {
	rng := rand.New(rand.NewSource(2))
	ch := NewChunk(0, 2, []ScalarType{TypeInt64})
	for k := 0; k < n; k++ {
		ch.AppendCell([]int64{rng.Int63n(1000), rng.Int63n(1000)}, []Value{IntValue(int64(k))})
	}
	return ch
}

// sortLoop sorts a copy of the unsorted chunk tmpl per iteration with
// sortFn, restoring the copy's columns in place first; the restore is
// part of the measured loop. A warm-up sort fills Sort's pool.
func sortLoop(tmpl *Chunk, sortFn func(*Chunk)) func() func(n int) error {
	return func() func(n int) error {
		ch := tmpl.Clone()
		sortFn(ch)
		return func(n int) error {
			for i := 0; i < n; i++ {
				for d := range ch.Coords {
					copy(ch.Coords[d], tmpl.Coords[d])
				}
				for c := range ch.Cols {
					copy(ch.Cols[c].Ints, tmpl.Cols[c].Ints)
				}
				ch.Sorted = false
				sortFn(ch)
			}
			if !ch.IsSortedCOrder() {
				return errors.New("Sort left the chunk out of C-order")
			}
			return nil
		}
	}
}

// runLoop benchmarks a gated loop, reporting its allocations.
func runLoop(b *testing.B, setup func() func(n int) error) {
	loop := setup()
	b.ReportAllocs()
	b.ResetTimer()
	if err := loop(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChunkKeyOf: 0 allocs/op (TestChunkKeyAllocGates enforces it).
func BenchmarkChunkKeyOf(b *testing.B) { runLoop(b, chunkKeyOfLoop) }

// BenchmarkPutExistingChunk: 0 allocs/op (TestChunkKeyAllocGates
// enforces it).
func BenchmarkPutExistingChunk(b *testing.B) { runLoop(b, putExistingChunkLoop) }

// BenchmarkSortedKeys: one allocation, the result
// (TestChunkKeyAllocGates enforces it).
func BenchmarkSortedKeys(b *testing.B) { runLoop(b, sortedKeysLoop) }

// BenchmarkChunkSort sorts hash_hot's output shape (328 k rows in four
// interleaved ascending runs, which Sort merges) and a random 2-D chunk
// of 20 k rows (which it sorts by permutation), each also through the
// stable sort it replaced.
func BenchmarkChunkSort(b *testing.B) {
	shapes := []struct {
		name string
		ch   *Chunk
	}{{"runs4_328k", sortRunsChunk(328_000)}, {"random2d_20k", sortRandomChunk(20_000)}}
	for _, sh := range shapes {
		b.Run(sh.name+"/Sort", func(b *testing.B) { runLoop(b, sortLoop(sh.ch, (*Chunk).Sort)) })
		b.Run(sh.name+"/stable", func(b *testing.B) { runLoop(b, sortLoop(sh.ch, stableSort)) })
	}
}

// TestChunkKeyAllocGates gates the chunk-key and chunk-sort benchmark
// loops, called not copied, on every core count: ChunkKeyOf, Put into an
// existing chunk and a steady-state Sort (merging runs or sorting a
// permutation) allocate nothing, SortedKeys only its result. Each loop
// runs a fixed number of iterations, and allocations are counted as
// testing.Benchmark counts them: heap mallocs across the loop, divided by
// the iterations.
func TestChunkKeyAllocGates(t *testing.T) {
	for _, g := range []struct {
		name  string
		setup func() func(n int) error
		iters int
		max   uint64
	}{
		{"ChunkKeyOf", chunkKeyOfLoop, 200_000, 0},
		{"PutExistingChunk", putExistingChunkLoop, 100_000, 0},
		{"SortedKeys", sortedKeysLoop, 500, 1},
		{"ChunkSort/runs", sortLoop(sortRunsChunk(20_000), (*Chunk).Sort), 50, 0},
		{"ChunkSort/random", sortLoop(sortRandomChunk(5_000), (*Chunk).Sort), 50, 0},
	} {
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			loop := g.setup()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := loop(g.iters)
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %s: %v", procs, g.name, err)
			}
			if a := (after.Mallocs - before.Mallocs) / uint64(g.iters); a > g.max {
				t.Errorf("GOMAXPROCS=%d: %s = %d allocs/op, want at most %d", procs, g.name, a, g.max)
			}
		}
	}
}
