package pipeline_test

import (
	"math/rand"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

func buildArray(schema string, seed int64, n int, domain int64) *array.Array {
	s := array.MustParseSchema(schema)
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	for len(used) < n {
		c := rng.Int63n(s.Dims[0].Extent()) + s.Dims[0].Start
		if used[c] {
			continue
		}
		used[c] = true
		a.MustPut([]int64{c}, []array.Value{array.IntValue(rng.Int63n(domain))})
	}
	a.SortAll()
	return a
}

func newCluster(t *testing.T, k int, arrays ...*array.Array) *cluster.Cluster {
	t.Helper()
	c := cluster.MustNew(k)
	for _, a := range arrays {
		c.Load(a, cluster.RoundRobin)
	}
	return c
}

type cell struct {
	coords []int64
	attrs  []array.Value
}

func cellsOf(a *array.Array) []cell {
	var out []cell
	a.Scan(func(c []int64, attrs []array.Value) bool {
		out = append(out, cell{coords: append([]int64(nil), c...), attrs: append([]array.Value(nil), attrs...)})
		return true
	})
	return out
}

// TestCompareDeterministicAcrossParallelism locks the Compare stage's
// determinism contract: identical fingerprints at Parallelism 1, 4, and 0
// (one worker per CPU).
func TestCompareDeterministicAcrossParallelism(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 11, 170, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 12, 150, 25)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,24,5]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	var base string
	for i, par := range []int{1, 4, 0} {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
			Selectivity: 0.5,
			Parallelism: par,
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		fp := rendered(t, rep)
		if i == 0 {
			base = fp
		} else if fp != base {
			t.Fatalf("fingerprint at par=%d differs from par=1", par)
		}
	}
}
