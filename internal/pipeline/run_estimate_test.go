package pipeline_test

import (
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
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

// TestSelectResolution: Options.Select column references resolve to a
// dimension or attribute of the named source, or of either when
// unqualified, and fail the query otherwise.
func TestSelectResolution(t *testing.T) {
	a := buildArray("A<v:int>[i=1,50,10]", 51, 30, 10)
	b := buildArray("B<w:int>[j=1,50,10]", 52, 30, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int>[v=0,9,5]")
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	run := func(arr, field string) (*pipeline.Report, error) {
		return pipeline.RunDistributed(c, dl, dr, pred, out, pipeline.Options{
			Select: []pipeline.Expr{{Op: pipeline.OpCol, Array: arr, Field: field}},
		})
	}
	rep, err := run("A", "i")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Fatal("no matches")
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if _, ok := a.Get([]int64{attrs[0].Int}); !ok {
			t.Fatalf("output cell %v: A.i = %d is not a cell of A", coords, attrs[0].Int)
		}
		return true
	})
	for _, bad := range [][2]string{{"A", "missing"}, {"Z", "v"}} {
		if _, err := run(bad[0], bad[1]); err == nil {
			t.Errorf("select %s.%s should fail", bad[0], bad[1])
		}
	}
	// A dimension on the right side, and an unqualified attribute.
	for _, good := range [][2]string{{"B", "j"}, {"", "w"}} {
		if _, err := run(good[0], good[1]); err != nil {
			t.Errorf("select %s.%s: %v", good[0], good[1], err)
		}
	}
}

// TestSelectCarried: LogicalPlan carries every attribute a Select
// list reads, so an attribute the destination and the predicate do not
// name still projects; and a Select column no source has fails the
// query in logical-plan, before a byte is charged.
func TestSelectCarried(t *testing.T) {
	a := buildArray("A<v:int>[i=1,50,10]", 53, 30, 10)
	b := buildArray("B<w:int>[i=1,50,10]", 54, 30, 10)
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	out := &array.Schema{
		Name:  "T",
		Dims:  []array.Dimension{{Name: "i", Start: 1, End: 50, ChunkInterval: 10}},
		Attrs: []array.Attribute{{Name: "x", Type: array.TypeInt64}},
	}
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	// B.w is named by neither τ nor the predicate.
	rep, err := pipeline.RunDistributed(c, dl, dr, pred, out, pipeline.Options{
		Select: []pipeline.Expr{{Op: pipeline.OpCol, Array: "B", Field: "w"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Fatal("no matches")
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if w, ok := b.Get(coords); !ok || !attrs[0].Equal(w[0]) {
			t.Fatalf("output cell %v: x = %v, want B.w = %v", coords, attrs[0], w)
		}
		return true
	})

	opt := pipeline.Options{Select: []pipeline.Expr{{Op: pipeline.OpCol, Array: "B", Field: "nope"}}}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, out, opt)
	ledger := pipeline.OpenLedger()
	if err := pipeline.Execute(qc, pipeline.DefaultStages()); err == nil || !strings.Contains(err.Error(), "B.nope") {
		t.Fatalf("err = %v, want one naming B.nope", err)
	}
	if st := qc.Report.Stages; len(st) == 0 || st[len(st)-1].Stage != "logical-plan" {
		t.Errorf("stages = %+v, want them to end at logical-plan", st)
	}
	if err := ledger.Check(qc); err != nil {
		t.Error(err)
	}
}
