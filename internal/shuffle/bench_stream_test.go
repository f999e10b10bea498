package shuffle

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
)

// benchSide builds a hash-unit mapped side for the steady-state
// benchmark: n cells, k nodes, int key with heavy duplication so hash
// buckets chain.
func benchSide(name string, n int64, k int, units int) (*cluster.Distributed, *UnitSpec, *SideMapper) {
	s := array.MustParseSchema(name + "<v:int, f:float>[i=1,100,10]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, n/16
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(n))
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []array.Value{
			array.IntValue(rng.Int63n(n / 8)),
			array.FloatValue(rng.Float64()),
		})
	}
	d := cluster.Distribute(a, k, cluster.RoundRobin)
	spec := &UnitSpec{Kind: HashUnits, NumUnits: units}
	m := &SideMapper{
		KeyRefs: []join.Ref{{IsDim: false, Index: 0, Name: "v"}},
		Carry:   []int{0, 1},
	}
	return d, spec, m
}

// ddSide builds a D:D side of merge_skew's shape: name<v:int>[i=1,256,
// 32, j=1,256,32] with n cells at distinct positions dealt evenly to its
// 64 chunks, distributed round-robin over k nodes, mapped into chunk
// units on its own grid keyed by both dimensions, so every chunk is one
// unit and its side is borrowed.
func ddSide(name string, n, k int) (*cluster.Distributed, *UnitSpec, *SideMapper) {
	s := array.MustParseSchema(name + "<v:int>[i=1,256,32, j=1,256,32]")
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(int64(n)))
	for c := 0; c < 64; c++ {
		for _, p := range rng.Perm(32 * 32)[:n/64] {
			a.MustPut([]int64{int64(c/8*32 + p/32 + 1), int64(c%8*32 + p%32 + 1)}, []array.Value{array.IntValue(rng.Int63n(1000))})
		}
	}
	a.SortAll()
	iRef, jRef := join.Ref{IsDim: true, Index: 0, Name: "i"}, join.Ref{IsDim: true, Index: 1, Name: "j"}
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: s.Dims}
	m := &SideMapper{KeyRefs: []join.Ref{iRef, jRef}, DimRefs: []join.Ref{iRef, jRef}, Carry: []int{0}}
	return cluster.Distribute(a, k, cluster.RoundRobin), spec, m
}

// steadyState maps two 16 k-cell hash-unit sides once, placing unit u
// for node u mod k, and returns the engine's recurring compare work
// over them: every unit's two runs read in place (RunSet.Run) and
// joined by the columnar hash kernel into a reused match list. No
// ReleaseUnit: the runs persist, so every call replays the same compare
// work, as repeated queries over a warm engine do.
func steadyState(tb testing.TB) (runAll func(), cells int64) {
	const k, units = 4, 16
	dl, spec, m := benchSide("L", 1<<14, k, units)
	dr, _, _ := benchSide("R", 1<<14, k, units)
	home := make([]int, units)
	for u := range home {
		home[u] = u % k
	}
	var sides [2]*RunSet
	for i, d := range []*cluster.Distributed{dl, dr} {
		rs, err := CountSlices(d, k, spec, m, 0, StreamConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		rs.Place(home, 0)
		sides[i] = rs
	}
	rsl, rsr := sides[0], sides[1]
	for u := 0; u < units; u++ {
		cells += rsl.UnitTotal(u) + rsr.UnitTotal(u)
	}
	var matches join.Matches
	runAll = func() {
		for u := 0; u < spec.NumUnits; u++ {
			matches.L, matches.R = matches.L[:0], matches.R[:0]
			if _, err := join.RunColumns(join.Hash, rsl.Run(u), rsr.Run(u), 1, nil, &matches); err != nil {
				panic(err)
			}
		}
	}
	runAll() // warm the scratch and index pools and grow the match list
	return runAll, cells
}

// BenchmarkStreamingSteadyState measures the recurring cost of the
// engine's compare path, with the one-time map cost excluded.
// TestStreamingSteadyStateZeroAllocs holds it to 0 allocations.
func BenchmarkStreamingSteadyState(b *testing.B) {
	runAll, cells := steadyState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll()
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// allocsPerRun counts the heap allocations of n calls of f with
// runtime.ReadMemStats. The caller turns the collector off.
func allocsPerRun(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocSink keeps the gate's injected allocation on the heap.
var allocSink []byte

// TestStreamingSteadyStateZeroAllocs is the gate on the compare path:
// after a warm-up, a fixed number of passes over every unit allocate
// nothing, at every core count. The counts run with the collector off,
// after a full collection on the new core count has started its GC
// workers, goroutines the runtime allocates. The runtime can still
// allocate a few objects of its own during a count now and then (5 or
// 6, seen under the race detector), where the compare path would
// allocate in every pass of every count, so the least of three counts
// is held to 0. The counter is checked too: the same passes with one
// allocation injected per pass must read at least one per pass.
func TestStreamingSteadyStateZeroAllocs(t *testing.T) {
	const passes = 20
	runAll, _ := steadyState(t)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		runAll() // the first pass on new Ps
		got := allocsPerRun(passes, runAll)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, allocsPerRun(passes, runAll))
		}
		injected := allocsPerRun(passes, func() {
			runAll()
			allocSink = make([]byte, 64)
		})
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		if got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d passes of the compare path made %d allocations, want 0", procs, passes, got)
		}
		if injected < passes {
			t.Errorf("GOMAXPROCS=%d: %d passes with an injected allocation each counted %d allocations, want at least %d", procs, passes, injected, passes)
		}
	}
}

// mapRelease returns slice maps' whole life, as a query runs it: each
// side mapped on k nodes, then every unit of every side released,
// which returns the sides' stores to the pool. It maps on one worker:
// more workers add only their goroutines, whose allocations the runtime
// makes, now and then more of them, as it balances its per-core free
// lists.
func mapRelease(k int, spec *UnitSpec, m *SideMapper, sides ...*cluster.Distributed) func() {
	return func() {
		sets := make([]*RunSet, 0, 2)
		for _, d := range sides {
			rs, err := MapSideStream(d, k, spec, m, 1, StreamConfig{})
			if err != nil {
				panic(err)
			}
			sets = append(sets, rs)
		}
		for _, rs := range sets {
			for u := 0; u < spec.NumUnits; u++ {
				rs.ReleaseUnit(u)
			}
		}
	}
}

// mapAllocsCeiling is the most allocations a warm mapRelease may make,
// as measured (Go 1.24): the RunSet with its layout, counts and row
// offsets, and the dictionary, none of them per cell.
const mapAllocsCeiling = 11

// TestMapSideStreamStorePoolAllocs is the gate on the store pool: once
// warm, a slice map and the release of its units make the same number
// of allocations for 4 k cells as for 32 k, and no more than
// mapAllocsCeiling, at every core count (checkMapAllocs).
func TestMapSideStreamStorePoolAllocs(t *testing.T) {
	const k, units = 4, 16
	ds, spec, m := benchSide("S", 1<<12, k, units)
	dl, _, _ := benchSide("L", 1<<15, k, units)
	checkMapAllocs(t, mapRelease(k, spec, m, ds), mapRelease(k, spec, m, dl))
}

// TestMapSideStreamViewsPoolAllocs is the same gate on a D:D side whose
// units are its chunks, all borrowed: once warm, the views' headers
// come from their pool, so 4 k cells and 32 k over the same 64 chunks
// make the same allocations, no more than mapAllocsCeiling.
func TestMapSideStreamViewsPoolAllocs(t *testing.T) {
	const k = 4
	ds, spec, m := ddSide("S", 1<<12, k)
	dl, _, _ := ddSide("L", 1<<15, k)
	rs, err := MapSideStream(dl, k, spec, m, 1, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < spec.NumUnits; u++ {
		if !rs.borrowed(u) {
			t.Fatalf("fixture: unit %d of the D:D side is not borrowed", u)
		}
	}
	rs.Release()
	checkMapAllocs(t, mapRelease(k, spec, m, ds), mapRelease(k, spec, m, dl))
}

// checkMapAllocs holds a warm small and large map-and-release to the
// same allocation count, at most mapAllocsCeiling each. The counts
// follow TestStreamingSteadyStateZeroAllocs: collector off, the least
// of three counts, and a check that the count sees an injected
// allocation.
func checkMapAllocs(t *testing.T, small, large func()) {
	t.Helper()
	const passes = 10
	least := func(f func()) uint64 {
		got := allocsPerRun(passes, f)
		for try := 0; try < 2; try++ {
			got = min(got, allocsPerRun(passes, f))
		}
		return got
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		large() // grows a pooled store to the larger side
		small()
		gotSmall, gotLarge := least(small), least(large)
		injected := allocsPerRun(passes, func() {
			small()
			allocSink = make([]byte, 64)
		})
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		if gotSmall != gotLarge {
			t.Errorf("GOMAXPROCS=%d: %d maps made %d allocations at the small side and %d at the large, want the same", procs, passes, gotSmall, gotLarge)
		}
		if gotLarge > passes*mapAllocsCeiling {
			t.Errorf("GOMAXPROCS=%d: %d maps made %d allocations, want at most %d", procs, passes, gotLarge, passes*mapAllocsCeiling)
		}
		if injected < gotSmall+passes {
			t.Errorf("GOMAXPROCS=%d: %d maps with an injected allocation each counted %d allocations, want at least %d", procs, passes, injected, gotSmall+passes)
		}
	}
}

// TestMapSideStreamLargeSidesPooled is the gate on the pools' row
// bound: two sides of 400 k rows each, merge_skew's shape, fit the
// store pool and the count pass's scratch pool together, so once warm,
// a query's two-sided map and release allocates no store and no
// scratch: as many allocations as two 4 k-cell sides, and less than one
// column of a side in bytes.
func TestMapSideStreamLargeSidesPooled(t *testing.T) {
	const k, units, passes = 4, 16, 3
	dl, spec, m := benchSide("L", 400_000, k, units)
	dr, _, _ := benchSide("R", 400_000, k, units)
	ds, _, _ := benchSide("S", 1<<12, k, units)
	large, small := mapRelease(k, spec, m, dl, dr), mapRelease(k, spec, m, ds, ds)
	count := func(f func()) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	large() // warm: each side grows a pooled store and a scratch
	small() // and the small side builds its chunk lists
	gotLarge, bytes := count(large)
	gotSmall, _ := count(small)
	if gotLarge > gotSmall {
		t.Errorf("%d two-sided maps made %d allocations at 400 k rows a side and %d at 4 k cells", passes, gotLarge, gotSmall)
	}
	if bytes >= 400_000*8 {
		t.Errorf("%d two-sided maps of 400 k rows a side allocated %d bytes, a column of a side is %d", passes, bytes, 400_000*8)
	}
}
