package pipeline_test

import (
	"fmt"
	"math/rand"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// hashHotSide is one side of hash_hot's inputs: cells cells over 64
// chunks, keys drawn from a range a little wider than the array, and 1%
// of the cells, in the second chunk, on four hot keys.
func hashHotSide(name, attr, dim string, cells int, seed int64) *array.Array {
	chunk := (cells + 63) / 64
	a := array.MustNew(array.MustParseSchema(fmt.Sprintf("%s<%s:int>[%s=1,%d,%d]", name, attr, dim, cells, chunk)))
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, cells)
	for i := range keys {
		keys[i] = 4 + rng.Int63n(int64(cells)*5/4)
	}
	for k, i := range rng.Perm(chunk)[:cells/100] {
		keys[chunk+i] = int64(k % 4)
	}
	for i, key := range keys {
		a.MustPut([]int64{int64(i + 1)}, []array.Value{array.IntValue(key)})
	}
	return a
}

// BenchmarkCompareRowOutput times Compare and Assemble at hash_hot's
// shape: 100,000 cells a side on 4 nodes, a hash join on the attribute
// whose four hot keys make most of its ≈ 328 k matches, written to a
// row-numbered output of both sides' coordinates. The stages before
// Compare run with the timer stopped, so B/op is what writing the
// output costs: its columns, allocated once.
func BenchmarkCompareRowOutput(b *testing.B) {
	c := cluster.MustNew(4)
	c.Load(hashHotSide("A", "v", "i", 100_000, 20), cluster.RoundRobin)
	c.Load(hashHotSide("B", "w", "j", 100_000, 21), cluster.RoundRobin)
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int, j:int>[]")
	st := pipeline.DefaultStages()
	start := probeStage{func(*pipeline.QueryContext) { b.StartTimer() }}
	stages := append(append(append([]pipeline.Stage{}, st[:4]...), start), st[4:]...)
	// One query first seals the inputs and fills the pools.
	rep, err := pipeline.RunDistributed(c, dl, dr, pred, out, pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		qc := pipeline.NewQueryContext(c, dl, dr, pred, out, pipeline.Options{})
		if err := pipeline.Execute(qc, stages); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Matches), "rows")
}
