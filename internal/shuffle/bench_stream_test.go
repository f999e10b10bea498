package shuffle

import (
	"math/rand"
	"runtime"
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
		KeyRefs:  []join.Ref{{IsDim: false, Index: 0, Name: "v"}},
		CarryAll: true,
	}
	return d, spec, m
}

// BenchmarkStreamingSteadyState measures the recurring cost of the
// streaming compare path — pooled readers decoding batch runs into
// reusable arenas, pooled hash index, windowed probing — with the
// one-time map cost excluded. The hard requirement (enforced by
// TestStreamingSteadyStateZeroAllocs) is 0 allocs/op: after the first
// warmup pass every reader, arena, and index comes from a pool.
func BenchmarkStreamingSteadyState(b *testing.B) {
	const k, units = 4, 16
	dl, spec, m := benchSide("L", 1<<14, k, units)
	dr, _, _ := benchSide("R", 1<<14, k, units)

	rsl, err := MapSideStream(dl, k, spec, m, 0, StreamConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rsr, err := MapSideStream(dr, k, spec, m, 0, StreamConfig{})
	if err != nil {
		b.Fatal(err)
	}

	var cells int64
	runAll := func() {
		for u := 0; u < spec.NumUnits; u++ {
			dest := u % k
			lrd := rsl.Reader(u, dest)
			rrd := rsr.Reader(u, dest)
			cells += int64(lrd.Len() + rrd.Len())
			join.RunStream(join.Hash, lrd, rrd, nil)
			lrd.Close()
			rrd.Close()
			// No ReleaseUnit: the runs persist so every iteration replays
			// the same compare work, exactly like repeated queries over a
			// warm engine.
		}
	}
	runAll() // warm the reader, arena, and index pools
	cells = 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll()
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// TestStreamingSteadyStateZeroAllocs is the gate on BenchmarkStreamingSteadyState: the
// benchmark body, called not copied, must read 0 allocs/op on every core
// count.
func TestStreamingSteadyStateZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res := testing.Benchmark(BenchmarkStreamingSteadyState)
		runtime.GOMAXPROCS(prev)
		if res.N == 0 {
			t.Fatalf("GOMAXPROCS=%d: BenchmarkStreamingSteadyState did not complete", procs)
		}
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkStreamingSteadyState = %d allocs/op, want 0", procs, a)
		}
	}
}
