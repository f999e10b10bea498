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
	m := &SideMapper{KeyRefs: []join.Ref{{IsDim: false, Index: 0, Name: "v"}}, CarryAll: true}
	benchMapRelease(b, d, spec, m)
}

// BenchmarkMapSideChunkUnits is BenchmarkMapSideHashUnits over 64 chunk
// units of the array's own dimension.
func BenchmarkMapSideChunkUnits(b *testing.B) {
	d := benchDistributed(b, 200_000)
	ref := join.Ref{IsDim: true, Index: 0, Name: "i"}
	spec := &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "i", Start: 1, End: 200_000, ChunkInterval: 3125}}}
	m := &SideMapper{KeyRefs: []join.Ref{ref}, DimRefs: []join.Ref{ref}, CarryAll: true}
	benchMapRelease(b, d, spec, m)
}

func benchMapRelease(b *testing.B, d *cluster.Distributed, spec *UnitSpec, m *SideMapper) {
	run := mapRelease(d, 4, spec, m)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
