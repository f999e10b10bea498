package aql

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

func filterCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.MustNew(3)
	a := array.MustNew(array.MustParseSchema("A<v:int, flag:int>[i=1,100,10]"))
	b := array.MustNew(array.MustParseSchema("B<w:int, score:float>[i=1,100,10]"))
	for i := int64(1); i <= 100; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(i), array.IntValue(i % 4)})
		b.MustPut([]int64{i}, []array.Value{array.IntValue(i), array.FloatValue(float64(i) / 10)})
	}
	a.SortAll()
	b.SortAll()
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)
	return c
}

func TestParseFilterConjuncts(t *testing.T) {
	q, err := Parse("SELECT * FROM A, B WHERE A.i = B.i AND A.flag = 2 AND B.score > 5.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Pred) != 1 {
		t.Fatalf("Pred = %v", q.Pred)
	}
	if len(q.Filters) != 2 {
		t.Fatalf("Filters = %v", q.Filters)
	}
	if q.Filters[0].Col.Name != "flag" || q.Filters[0].Op != "=" {
		t.Errorf("filter 0 = %v", q.Filters[0])
	}
	if q.Filters[1].Op != ">" || q.Filters[1].Val.AsFloat() != 5.0 {
		t.Errorf("filter 1 = %v", q.Filters[1])
	}
}

func TestParseFlippedFilter(t *testing.T) {
	q, err := Parse("SELECT * FROM A, B WHERE A.i = B.i AND 10 <= A.v")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != ">=" || q.Filters[0].Col.Name != "v" {
		t.Errorf("flipped filter = %v", q.Filters)
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM A, B WHERE A.v < B.w",  // non-equality join
		"SELECT * FROM A, B WHERE 1 = 2",      // two literals
		"SELECT * FROM A, B WHERE A.v ~ 3",    // bad operator
		"SELECT * FROM A, B WHERE A.flag = 2", // filter only: no join pred
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRunWithFilterPushdown(t *testing.T) {
	c := filterCluster(t)
	// flag = i%4; i in 1..100 with flag=2: i ∈ {2,6,...,98} -> 25 rows.
	rep, err := runText(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND A.flag = 2", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 25 {
		t.Errorf("Matches = %d, want 25", rep.Matches)
	}
}

func TestRunWithBothSideFilters(t *testing.T) {
	c := filterCluster(t)
	// A.flag != 0 keeps 75 rows; B.score > 5.0 keeps i > 50.
	// Intersection: i in 51..100 with i%4 != 0 -> 50 - 13 = 37.
	rep, err := runText(c, `SELECT A.v FROM A, B
		WHERE A.i = B.i AND A.flag != 0 AND B.score > 5.0`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 37 {
		t.Errorf("Matches = %d, want 37", rep.Matches)
	}
}

func TestRunFilterOnDimension(t *testing.T) {
	c := filterCluster(t)
	rep, err := runText(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND A.i <= 10", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 10 {
		t.Errorf("Matches = %d, want 10", rep.Matches)
	}
}

func TestRunFilterUnknownColumn(t *testing.T) {
	c := filterCluster(t)
	if _, err := runText(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND nope = 1", pipeline.Options{}); err == nil {
		t.Error("unknown filter column should error")
	}
	// Ambiguous unqualified column (i exists in both).
	if _, err := runText(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND i = 1", pipeline.Options{}); err == nil {
		t.Error("ambiguous filter column should error")
	}
}

func TestMultiWayWithFilter(t *testing.T) {
	c := threeWayCluster(t)
	// Regions pop > 3000 keeps regions 4,5 (pop 4000, 5000) -> rid 4,0.
	res, err := runMultiText(c, `SELECT * FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid
		AND Regions.pop > 3000`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Users with region ∈ {4, 0}: uid%5 ∈ {4,0} -> 20 users; each has 8
	// clicks -> 160.
	if n := res.Output.CellCount(); n != 160 {
		t.Errorf("%d output cells, want 160", n)
	}
}

// figure1 builds the paper's Figure 1 array.
func figure1() *array.Array {
	a := array.MustNew(array.MustParseSchema("A<v1:int, v2:float>[i=1,6,3, j=1,6,3]"))
	cells := []struct {
		i, j int64
		v1   int64
		v2   float64
	}{
		{1, 2, 5, 3.0}, {1, 3, 1, 4.7},
		{2, 1, 1, 0.2}, {2, 2, 7, 1.3},
		{3, 1, 1, 0.9}, {3, 2, 0, 0.4}, {3, 3, 0, 7.5},
		{4, 1, 6, 1.4}, {4, 2, 3, 6.9},
		{5, 1, 3, 0.8}, {5, 2, 3, 1.4}, {5, 3, 6, 9.1},
		{6, 1, 9, 2.7}, {6, 2, 5, 7.9}, {6, 3, 5, 8.7},
	}
	for _, c := range cells {
		a.MustPut([]int64{c.i, c.j}, []array.Value{array.IntValue(c.v1), array.FloatValue(c.v2)})
	}
	a.SortAll()
	return a
}

// cond is the literal filter "name op val" on an unqualified column.
func cond(name, op string, val array.Value) Filter {
	return Filter{Col: join.Term{Name: name}, Op: op, Val: val}
}

func TestFilterPaperExample(t *testing.T) {
	// filter(A, v1 > 5): the Section 2.2 example query.
	out, err := filterArray(figure1(), cond("v1", ">", array.IntValue(5)))
	if err != nil {
		t.Fatal(err)
	}
	// v1 > 5: cells (2,2)=7, (4,1)=6, (5,3)=6, (6,1)=9.
	if out.CellCount() != 4 {
		t.Errorf("filter kept %d cells, want 4", out.CellCount())
	}
	out.Scan(func(_ []int64, attrs []array.Value) bool {
		if attrs[0].AsInt() <= 5 {
			t.Errorf("cell with v1=%v survived the filter", attrs[0])
		}
		return true
	})
}

func TestFilterOnDimension(t *testing.T) {
	out, err := filterArray(figure1(), cond("i", "<=", array.IntValue(2)))
	if err != nil {
		t.Fatal(err)
	}
	if out.CellCount() != 4 {
		t.Errorf("got %d cells, want 4", out.CellCount())
	}
}

func TestFilterOperators(t *testing.T) {
	a := figure1()
	cases := []struct {
		f    Filter
		want int64
	}{
		{cond("v1", "=", array.IntValue(1)), 3},
		{cond("v1", "!=", array.IntValue(1)), 12},
		{cond("v1", "<", array.IntValue(1)), 2},
		{cond("v1", ">=", array.IntValue(9)), 1},
		{cond("v2", ">", array.FloatValue(7.0)), 4},
	}
	for _, tc := range cases {
		out, err := filterArray(a, tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.f, err)
		}
		if out.CellCount() != tc.want {
			t.Errorf("%s: %d cells, want %d", tc.f, out.CellCount(), tc.want)
		}
	}
}

func TestFilterErrors(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		want string
	}{
		{"unknown field", cond("nope", ">", array.IntValue(1)), `"nope"`},
		{"unknown operator", cond("v1", "~", array.IntValue(1)), `"~"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := filterArray(figure1(), tc.f)
			if err == nil {
				t.Fatalf("%s kept %d cells, want an error", tc.f, out.CellCount())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to mention %s", err, tc.want)
			}
		})
	}
}

func TestFilterOperatorAliases(t *testing.T) {
	a := figure1()
	for alias, op := range map[string]string{"==": "=", "<>": "!="} {
		got, err := filterArray(a, cond("v1", alias, array.IntValue(1)))
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		want, err := filterArray(a, cond("v1", op, array.IntValue(1)))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got.CellCount() != want.CellCount() {
			t.Errorf("v1 %s 1 kept %d cells, v1 %s 1 kept %d", alias, got.CellCount(), op, want.CellCount())
		}
	}
}

func TestFilterDimensionWindow(t *testing.T) {
	// The window i in [2,4], j in [1,2] as four dimension filters, the way
	// a query's range predicates are pushed down one at a time.
	out := figure1()
	for _, f := range []Filter{
		cond("i", ">=", array.IntValue(2)), cond("i", "<=", array.IntValue(4)),
		cond("j", ">=", array.IntValue(1)), cond("j", "<=", array.IntValue(2)),
	} {
		var err error
		if out, err = filterArray(out, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	// Occupied cells (2,1)(2,2)(3,1)(3,2)(4,1)(4,2).
	if out.CellCount() != 6 {
		t.Errorf("window kept %d cells, want 6", out.CellCount())
	}
	out.Scan(func(coords []int64, _ []array.Value) bool {
		if coords[0] < 2 || coords[0] > 4 || coords[1] < 1 || coords[1] > 2 {
			t.Errorf("cell %v outside window", coords)
		}
		return true
	})
}

func TestFilterPreservesPlacement(t *testing.T) {
	c := filterCluster(t)
	dl, _ := c.Catalog.Lookup("A")
	q, err := Parse("SELECT A.v FROM A, B WHERE A.i = B.i AND A.flag = 2")
	if err != nil {
		t.Fatal(err)
	}
	ops, err := operands(c, q)
	if err != nil {
		t.Fatal(err)
	}
	fl := ops[0].d
	if fl == dl {
		t.Fatal("the filter did not reach A")
	}
	if err := fl.Validate(c.K); err != nil {
		t.Fatalf("filtered placement invalid: %v", err)
	}
	for key, node := range fl.Placement {
		if dl.Placement[key] != node {
			t.Fatalf("chunk %d moved from node %d to %d", key, dl.Placement[key], node)
		}
	}
}

// TestRunSelfJoinFilters: a two-way query may name one array twice. A
// qualified filter goes to the first operand of its name, the left, and
// an unqualified column, found on both sides, is an error.
func TestRunSelfJoinFilters(t *testing.T) {
	c := filterCluster(t)
	// Left v ≤ 10 joins v ∈ {1, 2, 3} to the 25 right cells of each flag:
	// 75 matches. Filtering the right side instead would give 8.
	for _, query := range []string{
		"SELECT * FROM A, A WHERE A.v = A.flag AND A.v <= 10",
		"SELECT * FROM A JOIN A ON A.v = A.flag AND A.v <= 10",
	} {
		rep, err := runText(c, query, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if rep.Matches != 75 {
			t.Errorf("%s: Matches = %d, want 75", query, rep.Matches)
		}
		if got, want := rep.Output.Schema.String(), "A_join_A<v:int, flag:int>[i=1,100,10]"; got != want {
			t.Errorf("%s: output schema %s, want %s", query, got, want)
		}
	}
	for _, query := range []string{
		"SELECT * FROM A, A WHERE A.v = A.flag AND flag = 2",
		"SELECT * FROM A, A WHERE A.v = A.flag AND v <= 10",
	} {
		if _, err := runText(c, query, pipeline.Options{}); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: err = %v, want an ambiguous column", query, err)
		}
	}
	if _, err := runText(c, "SELECT * FROM A, A WHERE A.v = A.flag AND B.v <= 10", pipeline.Options{}); err == nil {
		t.Error("a filter on an array not in FROM should fail")
	}
}

// TestFilterBigIntsExact: an int filter literal beyond 2^53 selects the
// cells equal to it, not every cell a float64 rounds to the same value.
func TestFilterBigIntsExact(t *testing.T) {
	a := array.MustNew(array.MustParseSchema("A<v:int>[i=1,4,4]"))
	vals := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, 1 << 62}
	for i, v := range vals {
		a.MustPut([]int64{int64(i + 1)}, []array.Value{array.IntValue(v)})
	}
	for _, tc := range []struct {
		op   string
		lit  int64
		want []int64
	}{
		{"=", 1<<53 + 1, []int64{1<<53 + 1}},
		{"<", 1<<53 + 1, []int64{1 << 53}},
		{">=", 1<<53 + 2, []int64{1<<53 + 2, 1 << 62}},
		{"!=", 1<<62 + 1, vals},
	} {
		out, err := filterArray(a, Filter{Col: join.Term{Name: "v"}, Op: tc.op, Val: array.IntValue(tc.lit)})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		out.Scan(func(_ []int64, attrs []array.Value) bool {
			got = append(got, attrs[0].Int)
			return true
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("v %s %d selected %v, want %v", tc.op, tc.lit, got, tc.want)
		}
	}
}

// filterByCell is the cell-by-cell filterArray the per-chunk copy
// replaced, kept as its oracle.
func filterByCell(a *array.Array, f Filter) (*array.Array, error) {
	di, ai := a.Schema.DimIndex(f.Col.Name), a.Schema.AttrIndex(f.Col.Name)
	out := array.MustNew(a.Schema.Clone())
	var err error
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		v := array.IntValue(coords[max(di, 0)])
		if di < 0 {
			v = attrs[ai]
		}
		ok, cmpErr := compare(v, f.Op, f.Val)
		if cmpErr != nil {
			err = cmpErr
			return false
		}
		if ok {
			out.MustPut(coords, attrs)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out.SortAll()
	return out, nil
}

// unsortedMixed is U<n:int, f:float, s:string>[i=1,60,8, j=1,9,4] with
// cells put in random order, duplicate positions among them, so its
// chunks are unsorted and a stable sort keeps the duplicates' order.
func unsortedMixed() *array.Array {
	a := array.MustNew(array.MustParseSchema("U<n:int, f:float, s:string>[i=1,60,8, j=1,9,4]"))
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 800; c++ {
		a.MustPut([]int64{rng.Int63n(60) + 1, rng.Int63n(9) + 1}, []array.Value{
			array.IntValue(rng.Int63n(50)), array.FloatValue(rng.Float64() * 10), array.StringValue(strconv.Itoa(c % 13))})
	}
	return a
}

// sameArray reports how got differs from want: schema, chunk keys, and
// each chunk's rows, values and Sorted flag.
func sameArray(got, want *array.Array) error {
	if got.Schema.String() != want.Schema.String() {
		return fmt.Errorf("schema %s, want %s", got.Schema, want.Schema)
	}
	if g, w := got.SortedKeys(), want.SortedKeys(); !slices.Equal(g, w) {
		return fmt.Errorf("chunk keys %v, want %v", g, w)
	}
	for key, w := range want.Chunks {
		g := got.Chunks[key]
		if g.Sorted != w.Sorted || g.Len() != w.Len() {
			return fmt.Errorf("chunk %v: sorted %v with %d rows, want %v with %d", key, g.Sorted, g.Len(), w.Sorted, w.Len())
		}
		for row := 0; row < w.Len(); row++ {
			gc, ga := g.Cell(row)
			wc, wa := w.Cell(row)
			if !slices.Equal(gc, wc) || !slices.Equal(ga, wa) {
				return fmt.Errorf("chunk %v row %d: %v %v, want %v %v", key, row, gc, ga, wc, wa)
			}
		}
	}
	return nil
}

func TestFilterMatchesPerCell(t *testing.T) {
	a := unsortedMixed()
	for _, f := range []Filter{
		cond("n", "<", array.IntValue(20)),
		cond("f", ">=", array.FloatValue(4.5)),
		cond("s", "=", array.StringValue("7")),
		cond("j", "!=", array.IntValue(3)),
		cond("i", ">", array.IntValue(1000)),
		cond("n", "~", array.IntValue(1)),
	} {
		got, err := filterArray(a, f)
		want, wantErr := filterByCell(a, f)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("filter %v: error %v, per-cell %v", f, err, wantErr)
		}
		if err != nil {
			continue
		}
		if err := sameArray(got, want); err != nil {
			t.Errorf("filter %v: %v", f, err)
		}
	}
}
