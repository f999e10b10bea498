package pipeline_test

import (
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

func TestEstimatedSelectivityDrivesPlan(t *testing.T) {
	// A highly selective A:A join (few overlapping keys): the estimator
	// must report a low selectivity, steering the planner to a hash-side
	// plan (sort after comparison), as in Figure 6's low-selectivity
	// regime.
	a := array.MustNew(array.MustParseSchema("A<v:int>[i=1,4000,500]"))
	b := array.MustNew(array.MustParseSchema("B<w:int>[j=1,4000,500]"))
	for i := int64(1); i <= 4000; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i)})         // 1..4000
		b.MustPut([]int64{i}, []array.Value{array.IntValue(i + 3_900)}) // 3901..7900: 100 overlap
	}
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int, j:int>[v=1,8000,1000]")
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selectivity <= 0 {
		t.Fatal("no selectivity recorded")
	}
	// True selectivity: 100 matches / 8000 cells = 0.0125.
	if rep.Selectivity > 0.2 {
		t.Errorf("estimated selectivity %v far above truth 0.0125", rep.Selectivity)
	}
	if rep.Matches != 100 {
		t.Errorf("Matches = %d, want 100", rep.Matches)
	}
}

func TestEstimatedSelectivityDDJoin(t *testing.T) {
	// Dense same-space D:D join: estimator uses key-space overlap.
	a := buildArray("A<v:int>[i=1,500,50]", 31, 400, 10)
	b := buildArray("B<w:int>[i=1,500,50]", 32, 400, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// n_out estimate = 400*400/500 = 320 -> sel = 0.4.
	if rep.Selectivity < 0.1 || rep.Selectivity > 1.5 {
		t.Errorf("D:D estimated selectivity = %v, want ~0.4", rep.Selectivity)
	}
}

func TestCallerSelectivityWins(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,10]", 33, 50, 10)
	b := buildArray("B<w:int>[i=1,100,10]", 34, 50, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity: 7.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selectivity != 7.5 {
		t.Errorf("Selectivity = %v, want caller's 7.5", rep.Selectivity)
	}
}

// TestADJoinFigure2c exercises the Attribute:Dimension join of Figure
// 2(c): SELECT a.v INTO <v:int>[i, j] FROM a, b WHERE a.i = b.w — a join
// type the paper notes current array databases do not support.
func TestADJoinFigure2c(t *testing.T) {
	a := array.MustNew(array.MustParseSchema("a<v:int>[i=1,9,3]"))
	b := array.MustNew(array.MustParseSchema("b<w:int>[j=1,9,3]"))
	// Figure 2 inputs: a.v = 1..9 at i=1..9; b.w = {2,3,5,6,7,9,10,11,12}.
	bw := []int64{2, 3, 5, 6, 7, 9, 10, 11, 12}
	for i := int64(1); i <= 9; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i)})
		b.MustPut([]int64{i}, []array.Value{array.IntValue(bw[i-1])})
	}
	c := newCluster(t, 3, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<v:int>[i=1,9,3, j=1,9,3]")
	rep, err := pipeline.Run(c, "a", "b", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Matches: b.w values within 1..9 that a occupies: 2,3,5,6,7,9 -> 6.
	if rep.Matches != 6 {
		t.Fatalf("Matches = %d, want 6", rep.Matches)
	}
	// Figure 2(c): output cell at (i=2, j=1) holds a.v=2 (b.w=2 at j=1).
	vals, ok := rep.Output.Get([]int64{2, 1})
	if !ok || vals[0].AsInt() != 2 {
		t.Errorf("output at (2,1) = %v, %v; want v=2", vals, ok)
	}
	// And (i=9, j=6) holds v=9 (b.w=9 at j=6).
	vals, ok = rep.Output.Get([]int64{9, 6})
	if !ok || vals[0].AsInt() != 9 {
		t.Errorf("output at (9,6) = %v, %v; want v=9", vals, ok)
	}
}

// TestADJoinAllAlgorithms verifies A:D joins agree across algorithms.
func TestADJoinAllAlgorithms(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 35, 150, 150)
	b := buildArray("B<w:int>[j=1,200,20]", 36, 150, 200)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<v:int>[i=1,200,20, j=1,200,20]")
	want := int64(-1)
	for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
		algo := algo
		c := newCluster(t, 3, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{ForceAlgo: &algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if want == -1 {
			want = rep.Matches
		}
		if rep.Matches != want {
			t.Errorf("%v: Matches = %d, want %d", algo, rep.Matches, want)
		}
	}
	if want <= 0 {
		t.Error("expected matches in A:D join")
	}
}

func TestAccessorResolution(t *testing.T) {
	a := buildArray("A<v:int>[i=1,50,10]", 51, 30, 10)
	b := buildArray("B<w:int>[j=1,50,10]", 52, 30, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int>[v=0,9,5]")
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	var js *logical.JoinSchema
	opt := pipeline.Options{
		ProjectFactory: func(j *logical.JoinSchema) (func(l, r *join.Tuple) []array.Value, error) {
			js = j
			acc, err := pipeline.Accessor(j, "A", "i")
			if err != nil {
				return nil, err
			}
			return func(l, r *join.Tuple) []array.Value {
				return []array.Value{acc(l, r)}
			}, nil
		},
	}
	rep, err := pipeline.RunDistributed(c, dl, dr, pred, out, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Fatal("no matches")
	}
	// Accessor error paths.
	if _, err := pipeline.Accessor(js, "A", "missing"); err == nil {
		t.Error("unknown field should fail")
	}
	if _, err := pipeline.Accessor(js, "Z", "v"); err == nil {
		t.Error("unknown array should fail")
	}
	// Dimension accessor on the right side, unqualified attribute search.
	if _, err := pipeline.Accessor(js, "B", "j"); err != nil {
		t.Errorf("right dim accessor: %v", err)
	}
	if _, err := pipeline.Accessor(js, "", "w"); err != nil {
		t.Errorf("unqualified attr accessor: %v", err)
	}
}

func TestAccessorNotCarried(t *testing.T) {
	// An attribute not in the carry set cannot be accessed post-shuffle.
	a := buildArray("A<v:int>[i=1,50,10]", 53, 30, 10)
	b := buildArray("B<w:int>[i=1,50,10]", 54, 30, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	out := &array.Schema{
		Name:  "T",
		Dims:  []array.Dimension{{Name: "i", Start: 1, End: 50, ChunkInterval: 10}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TypeInt64}},
	}
	opt := pipeline.Options{
		ProjectFactory: func(j *logical.JoinSchema) (func(l, r *join.Tuple) []array.Value, error) {
			// B.w is not referenced by τ or the predicate and was not
			// declared as an extra carry: the accessor must refuse.
			if _, err := pipeline.Accessor(j, "B", "w"); err == nil {
				t.Error("uncarried attribute should fail")
			}
			acc, err := pipeline.Accessor(j, "A", "v") // v not carried either
			if err == nil {
				return func(l, r *join.Tuple) []array.Value {
					return []array.Value{acc(l, r)}
				}, nil
			}
			return func(l, r *join.Tuple) []array.Value {
				return []array.Value{array.IntValue(0)}
			}, nil
		},
	}
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	if _, err := pipeline.RunDistributed(c, dl, dr, pred, out, opt); err != nil {
		t.Fatal(err)
	}
}
