package shuffle

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
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
		KeyRefs:  []join.Ref{{IsDim: false, Index: 0, Name: "v"}},
		CarryAll: true,
	}
	return d, spec, m
}

// steadyState maps two 16 k-cell hash-unit sides once and returns the
// engine's recurring compare work over them: every unit's two runs read
// in place (RunSet.Run) and joined by the columnar hash kernel into
// a reused match list. No ReleaseUnit: the runs persist, so every call
// replays the same compare work, as repeated queries over a warm engine
// do.
func steadyState(tb testing.TB) (runAll func(), cells int64) {
	const k, units = 4, 16
	dl, spec, m := benchSide("L", 1<<14, k, units)
	dr, _, _ := benchSide("R", 1<<14, k, units)
	rsl, err := MapSideStream(dl, k, spec, m, 0, StreamConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	rsr, err := MapSideStream(dr, k, spec, m, 0, StreamConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < units; u++ {
		cells += rsl.UnitTotal(u) + rsr.UnitTotal(u)
	}
	var lrun, rrun batch.Run
	var matches join.Matches
	runAll = func() {
		for u := 0; u < spec.NumUnits; u++ {
			dest := u % k
			lrun = rsl.Run(u, dest, lrun.Spans[:0])
			rrun = rsr.Run(u, dest, rrun.Spans[:0])
			if _, err := join.RunColumns(join.Hash, lrun, rrun, 1, nil, &matches); err != nil {
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

// mapRelease returns one slice map's whole life, as a query runs it: a
// side mapped on k nodes, then every unit released, which returns the
// side's store to the pool. It maps on one worker: more workers add
// only their goroutines, whose allocations the runtime makes, now and
// then more of them, as it balances its per-core free lists.
func mapRelease(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper) func() {
	return func() {
		rs, err := MapSideStream(d, k, spec, m, 1, StreamConfig{})
		if err != nil {
			panic(err)
		}
		for u := 0; u < spec.NumUnits; u++ {
			rs.ReleaseUnit(u)
		}
	}
}

// mapAllocsCeiling is the most allocations a warm mapRelease may make,
// as measured (Go 1.24): the RunSet with its layout and offsets, the
// count pass's scratch and the dictionary, none of them per cell.
const mapAllocsCeiling = 12

// TestMapSideStreamStorePoolAllocs is the gate on the store pool: once
// warm, a slice map and the release of its units make the same number
// of allocations for 4 k cells as for 32 k, and no more than
// mapAllocsCeiling, at every core count. The counts follow
// TestStreamingSteadyStateZeroAllocs: collector off, the least of three
// counts, and a check that the count sees an injected allocation.
func TestMapSideStreamStorePoolAllocs(t *testing.T) {
	const k, units, passes = 4, 16, 10
	ds, spec, m := benchSide("S", 1<<12, k, units)
	dl, _, _ := benchSide("L", 1<<15, k, units)
	small, large := mapRelease(ds, k, spec, m), mapRelease(dl, k, spec, m)
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
			t.Errorf("GOMAXPROCS=%d: %d maps made %d allocations at 4 k cells and %d at 32 k, want the same", procs, passes, gotSmall, gotLarge)
		}
		if gotLarge > passes*mapAllocsCeiling {
			t.Errorf("GOMAXPROCS=%d: %d maps made %d allocations, want at most %d", procs, passes, gotLarge, passes*mapAllocsCeiling)
		}
		if injected < gotSmall+passes {
			t.Errorf("GOMAXPROCS=%d: %d maps with an injected allocation each counted %d allocations, want at least %d", procs, passes, injected, gotSmall+passes)
		}
	}
}
