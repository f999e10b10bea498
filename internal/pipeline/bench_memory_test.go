package pipeline_test

import (
	"testing"

	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

// BenchmarkQueryFootprint measures one whole query end to end: B/op and
// allocs/op are the numbers of record (the memory-bench CI job renders
// them into BENCH_memory.json).
func BenchmarkQueryFootprint(b *testing.B) {
	// Near-unique keys: few matches, so the measurement is dominated by
	// the data plane (map, shuffle, compare), not output assembly.
	a1 := buildArray("A<v:int>[i=1,6000,300]", 21, 4000, 40_000)
	a2 := buildArray("B<w:int>[j=1,6000,300]", 22, 4000, 40_000)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	b.Run("streaming", func(b *testing.B) {
		c := cluster.MustNew(4)
		c.Load(a1.Clone(), cluster.RoundRobin)
		c.Load(a2.Clone(), cluster.RoundRobin)
		algo := join.Hash
		b.ReportAllocs()
		b.ResetTimer()
		var matches int64
		for i := 0; i < b.N; i++ {
			rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
				ForceAlgo: &algo,
				Logical:   logical.PlanOptions{Selectivity: 0.5},
			})
			if err != nil {
				b.Fatal(err)
			}
			matches = rep.Matches
		}
		b.ReportMetric(float64(matches), "matches")
	})
}
