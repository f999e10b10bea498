package array

import (
	"errors"
	"fmt"
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

// ingestShaped is ingest_redim's redimension at n cells: the source
// S<ship, speed>[t, x], 2,048 ships each reporting about n/2,048 times
// from x positions around a home port drawn from a Zipf law, its chunks
// sorted as a sealed array's are, and the target R<speed, x>[ship, t].
func ingestShaped(n int) (*Array, *Schema) {
	const ships, shipChunk, timeChunk, posChunk, ports = 2048, 128, 64, 256, 64
	steps := max(n/64, timeChunk)
	src := MustNew(MustParseSchema(fmt.Sprintf("S<ship:int, speed:int>[t=1,%d,%d, x=1,%d,%d]",
		steps, timeChunk, ports*posChunk, posChunk)))
	rng := rand.New(rand.NewSource(12))
	portOf := rand.NewZipf(rand.New(rand.NewSource(12)), 1.2, 1, ports-1)
	used := make(map[[2]int64]bool, n)
	for ship := 0; ship < ships; ship++ {
		home := int64(portOf.Uint64())
		reports := n / ships
		if ship < n%ships {
			reports++
		}
		for j := 0; j < reports; j++ {
			t := int64((float64(j)+rng.Float64())*float64(steps)/float64(reports)) + 1
			x := home*posChunk + rng.Int63n(posChunk) + 1
			for used[[2]int64{t, x}] {
				x = home*posChunk + rng.Int63n(posChunk) + 1
			}
			used[[2]int64{t, x}] = true
			src.MustPut([]int64{t, x}, []Value{IntValue(int64(ship)), IntValue(rng.Int63n(30))})
		}
	}
	src.SortAll()
	target := MustParseSchema(fmt.Sprintf("R<speed:int, x:int>[ship=0,%d,%d, t=1,%d,%d]", ships-1, shipChunk, steps, timeChunk))
	return src, target
}

// BenchmarkReorganize times Reorganize at ingest_redim's shape (100 k
// cells) with the per-pair flow counts Redistribute takes.
func BenchmarkReorganize(b *testing.B) {
	src, target := ingestShaped(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorganize(src, target, false, func(ChunkKey, ChunkKey, int) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReorganizeAllocs holds Reorganize at ingest_redim's shape to its
// allocation count, counted with runtime.ReadMemStats over a fixed number
// of calls: a few for all the parts together and seven per target chunk
// (the chunk and its columns), none per cell. The ceiling is the 2,861
// measured on Go 1.24 at GOMAXPROCS 1, 2 and 8, plus 2 %.
func TestReorganizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const calls, ceiling = 5, 2918
	src, target := ingestShaped(100_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := Reorganize(src, target, false, func(ChunkKey, ChunkKey, int) {}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.Mallocs - before.Mallocs) / calls; got > ceiling {
		t.Errorf("Reorganize at ingest_redim's shape made %d allocations a call, want at most %d", got, ceiling)
	}
}
