package shuffle

import (
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
)

func benchDistributed(b *testing.B, n int64) *cluster.Distributed {
	b.Helper()
	s := &array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "i", Start: 1, End: n, ChunkInterval: (n + 63) / 64}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TypeInt64}},
	}
	a := array.MustNew(s)
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i % 977)})
	}
	return cluster.Distribute(a, 4, cluster.RoundRobin)
}

// BenchmarkMapSideHashUnits times the engine's slice map into 256 hash
// units, every unit released after it, so a warm pooled store is what
// gets timed.
func BenchmarkMapSideHashUnits(b *testing.B) {
	d := benchDistributed(b, 200_000)
	spec := &UnitSpec{Kind: HashUnits, NumUnits: 256}
	m := &SideMapper{KeyRefs: []join.Ref{{IsDim: false, Index: 0, Name: "v"}}, Carry: []int{0}}
	benchMapRelease(b, d, spec, m)
}

// BenchmarkMapSideChunkUnits is BenchmarkMapSideHashUnits over chunk
// units of the array's own dimension: 64 on the array's grid, where the
// count pass takes every chunk whole and Place borrows it, and 67 on a
// grid that splits every chunk, which is mapped row by row and copied.
func BenchmarkMapSideChunkUnits(b *testing.B) {
	d := benchDistributed(b, 200_000)
	ref := join.Ref{IsDim: true, Index: 0, Name: "i"}
	m := &SideMapper{KeyRefs: []join.Ref{ref}, DimRefs: []join.Ref{ref}, Carry: []int{0}}
	for _, bc := range []struct {
		name     string
		interval int64
	}{{"aligned", 3125}, {"split", 3000}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 200_000, ChunkInterval: bc.interval}}}
			benchMapRelease(b, d, spec, m)
		})
	}
}

// BenchmarkMapSideDD is BenchmarkMapSideHashUnits over a D:D side of
// merge_skew's shape (ddSide): 32 k cells in 64 chunks of two
// dimensions, each chunk one unit, every unit borrowed.
// TestMapSideStreamViewsPoolAllocs gates its allocations.
func BenchmarkMapSideDD(b *testing.B) {
	d, spec, m := ddSide("D", 1<<15, 4)
	benchMapRelease(b, d, spec, m)
}

func benchMapRelease(b *testing.B, d *cluster.Distributed, spec *UnitSpec, m *SideMapper) {
	run := mapRelease(4, spec, m, d)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
