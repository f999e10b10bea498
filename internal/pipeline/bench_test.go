package pipeline_test

import (
	"fmt"
	"math/rand"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
)

// hashHotSide is one side of hash_hot's and wide_plan's inputs: cells
// cells over chunks chunks, keys drawn from a range a little wider than
// the array, and 1% of the cells, in the second chunk, on four hot keys.
func hashHotSide(name, attr, dim string, cells, chunks int, seed int64) *array.Array {
	chunk := (cells + chunks - 1) / chunks
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

// problemRecorder is a Tabu planner that keeps the Problem it was given.
type problemRecorder struct{ pr *physical.Problem }

func (r *problemRecorder) Name() string { return "Tabu" }

func (r *problemRecorder) Plan(pr *physical.Problem) (physical.Result, error) {
	r.pr = pr
	return physical.TabuPlanner{}.Plan(pr)
}

// widePlanProblem is the physical planning instance of one wide_plan
// query: hash_hot's join, 50,000 cells a side over 80 chunks, on 32
// nodes. wide_plan draws every chunk's keys from a fixed seed per side (0
// and 1) and its run seed only shuffles them within the chunk, which
// moves no cell between units or nodes, so the instance is the same at
// every seed.
func widePlanProblem(tb testing.TB) *physical.Problem {
	tb.Helper()
	c := cluster.MustNew(32)
	c.Load(hashHotSide("A", "v", "i", 50_000, 80, 0), cluster.RoundRobin)
	c.Load(hashHotSide("B", "w", "j", 50_000, 80, 1), cluster.RoundRobin)
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	rec := &problemRecorder{}
	if _, err := pipeline.RunDistributed(c, dl, dr, pred, array.MustParseSchema("T<i:int, j:int>[]"), pipeline.Options{Planner: rec}); err != nil {
		tb.Fatal(err)
	}
	return rec.pr
}

// BenchmarkTabuWidePlan times the Tabu planner on wide_plan's own
// instance (widePlanProblem), which searches far longer than a random
// instance of the same size (the physical package's BenchmarkTabu391x32).
func BenchmarkTabuWidePlan(b *testing.B) {
	pr := widePlanProblem(b)
	var res physical.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = (physical.TabuPlanner{}).Plan(pr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pr.N), "units")
	b.ReportMetric(float64(pr.K), "nodes")
	b.ReportMetric(float64(res.Search.TabuWhatIfs), "whatifs/op")
}

// BenchmarkCompareRowOutput times Compare and Assemble at hash_hot's
// shape: 100,000 cells a side on 4 nodes, a hash join on the attribute
// whose four hot keys make most of its ≈ 328 k matches, written to a
// row-numbered output of both sides' coordinates. The stages before
// Compare run with the timer stopped, so B/op is what writing the
// output costs: its columns, allocated once.
func BenchmarkCompareRowOutput(b *testing.B) {
	c := cluster.MustNew(4)
	c.Load(hashHotSide("A", "v", "i", 100_000, 64, 20), cluster.RoundRobin)
	c.Load(hashHotSide("B", "w", "j", 100_000, 64, 21), cluster.RoundRobin)
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
