package aql

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

// fromText adapts an entry point that takes a parsed query to AQL text:
// the text is parsed first, and a parse error is returned as the entry
// point's own.
func fromText[R any](f func(*cluster.Cluster, *Query, pipeline.Options) (R, error)) func(*cluster.Cluster, string, pipeline.Options) (R, error) {
	return func(c *cluster.Cluster, src string, opt pipeline.Options) (R, error) {
		q, err := Parse(src)
		if err != nil {
			var zero R
			return zero, err
		}
		return f(c, q, opt)
	}
}

var (
	runText      = fromText(Run)
	runMultiText = fromText(RunMulti)
	explainText  = fromText(Explain)
)

func TestParseFigure5Query(t *testing.T) {
	q, err := Parse("SELECT * INTO C<i:int, j:int>[v=1,128M,4M] FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Star {
		t.Error("expected SELECT *")
	}
	if q.Into == nil || q.Into.Name != "C" || q.Into.Dims[0].ChunkInterval != 4000000 {
		t.Errorf("Into = %v", q.Into)
	}
	if q.Left != "A" || q.Right != "B" {
		t.Errorf("FROM = %s, %s", q.Left, q.Right)
	}
	if len(q.Pred) != 1 || q.Pred[0].Left.Name != "v" || q.Pred[0].Right.Name != "w" {
		t.Errorf("Pred = %v", q.Pred)
	}
}

func TestParseMergeJoinQuery(t *testing.T) {
	q, err := Parse(`SELECT A.v1 - B.v1, A.v2 - B.v2
		FROM A, B
		WHERE A.i = B.i AND A.j = B.j;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("Select = %v", q.Select)
	}
	if len(q.Pred) != 2 {
		t.Fatalf("Pred = %v", q.Pred)
	}
	if q.Select[0].Expr.Op != '-' {
		t.Errorf("Select[0] = %#v", q.Select[0].Expr)
	}
}

func TestParseNDVIQuery(t *testing.T) {
	q, err := Parse(`SELECT (Band2.reflectance - Band1.reflectance)
		/ (Band2.reflectance + Band1.reflectance)
		FROM Band1, Band2
		WHERE Band1.time = Band2.time
		AND Band1.longitude = Band2.longitude
		AND Band1.latitude = Band2.latitude;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Pred) != 3 {
		t.Errorf("Pred = %v", q.Pred)
	}
	if len(q.Select) != 1 {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Select[0].Expr.Op != '/' {
		t.Errorf("top expr = %#v", q.Select[0].Expr)
	}
}

func TestParsePredicateOrientation(t *testing.T) {
	// Reversed qualifiers must flip so left terms reference the left array.
	q, err := Parse("SELECT * FROM A JOIN B ON B.w = A.v")
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred[0].Left.Array != "A" || q.Pred[0].Right.Array != "B" {
		t.Errorf("Pred = %v", q.Pred)
	}
}

func TestParseAlias(t *testing.T) {
	q, err := Parse("SELECT A.v AS reading FROM A, B WHERE A.i = B.j")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Alias != "reading" || q.Select[0].Name(0) != "reading" {
		t.Errorf("alias = %q", q.Select[0].Alias)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM A, B WHERE A.i = B.i",
		"SELECT * FROM A WHERE A.i = A.j",          // missing second array
		"SELECT * FROM A, B",                       // no predicate
		"SELECT * FROM A, B WHERE A.i < B.i",       // not an equality
		"SELECT * FROM A, B WHERE A.i = B.i junk",  // trailing tokens
		"SELECT * INTO C<v:int> FROM",              // truncated
		"SELECT 'unclosed FROM A, B WHERE A.i=B.i", // bad string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	q, err := Parse("SELECT A.v1 - B.v1 FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SELECT", "(A.v1 - B.v1)", "FROM A JOIN B", "A.i = B.i"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCompileInfersOutputSchema(t *testing.T) {
	left := array.MustNew(array.MustParseSchema("A<v1:int, v2:float, v3:int>[i=1,100,10]"))
	right := array.MustNew(array.MustParseSchema("B<v1:int, v2:float, v3:int>[i=1,100,10]"))
	for i := int64(1); i <= 20; i++ {
		vals := []array.Value{array.IntValue(i), array.FloatValue(float64(i)), array.IntValue(i)}
		left.MustPut([]int64{i}, vals)
		right.MustPut([]int64{i}, vals)
	}
	query := "SELECT A.v1 - B.v1, A.v2 / B.v2 FROM A, B WHERE A.i = B.i"
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, left.Schema, right.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Out.Attrs) != 2 {
		t.Fatalf("out attrs = %v", c.Out.Attrs)
	}
	if c.Out.Attrs[0].Type != array.TypeInt64 {
		t.Errorf("int - int should be int, got %v", c.Out.Attrs[0].Type)
	}
	if c.Out.Attrs[1].Type != array.TypeFloat64 {
		t.Errorf("division should be float, got %v", c.Out.Attrs[1].Type)
	}
	if len(c.Out.Dims) == 0 {
		t.Error("D:D default output should keep the dimension space")
	}
	// v1 and v2 are carried on both sides for the expressions, v3 on
	// neither.
	cl := cluster.MustNew(2)
	cl.Load(left, cluster.RoundRobin)
	cl.Load(right, cluster.RoundRobin)
	rep, err := runText(cl, query, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := rep.Logical.JS
	if want := []int{0, 1}; !slices.Equal(js.LeftCarry, want) || !slices.Equal(js.RightCarry, want) {
		t.Errorf("carries = %v / %v, want %v on both sides", js.LeftCarry, js.RightCarry, want)
	}
}

// TestCompileRejectsRepeatedOutputNames: a SELECT list whose default
// output schema would repeat a name, an item named like an output
// dimension or like an earlier item, fails in Compile with an error that
// names the item as the query wrote it, in a two-way query and in a
// k-way query's last step alike; AS resolves it.
func TestCompileRejectsRepeatedOutputNames(t *testing.T) {
	const two = " FROM Clicks, Users WHERE Clicks.who = Users.uid"
	const three = " FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid"
	// run returns a two-way query's Report, or a k-way query's last step.
	run := fromText(func(c *cluster.Cluster, q *Query, opt pipeline.Options) (*pipeline.Report, error) {
		if len(q.From) == 2 {
			return Run(c, q, opt)
		}
		res, err := RunMulti(c, q, opt)
		if err != nil {
			return nil, err
		}
		return res.Steps[len(res.Steps)-1], nil
	})
	for _, tc := range []struct{ query, want string }{
		{"SELECT Clicks.t, Users.region" + two, "aql: SELECT item Clicks.t repeats the output name t; rename it with AS"},
		{"SELECT region, region" + two, "aql: SELECT item region repeats the output name region; rename it with AS"},
		{"SELECT pop, pop" + three, "aql: SELECT item pop repeats the output name pop; rename it with AS"},
		{"SELECT who, pop AS who" + three, "aql: SELECT item pop repeats the output name who; rename it with AS"},
	} {
		if _, err := run(threeWayCluster(t), tc.query, pipeline.Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.query, err, tc.want)
		}
	}
	for _, query := range []string{"SELECT Clicks.t AS ts, Users.region" + two, "SELECT region, region AS r2" + two, "SELECT pop, pop AS p2" + three} {
		if rep, err := run(threeWayCluster(t), query, pipeline.Options{}); err != nil || rep.Matches != 400 {
			t.Errorf("%s: err = %v, want 400 matches", query, err)
		}
	}
}

func TestCompileIntoArityMismatch(t *testing.T) {
	left := array.MustParseSchema("A<v:int>[i=1,100,10]")
	right := array.MustParseSchema("B<w:int>[j=1,100,10]")
	q, err := Parse("SELECT A.v, B.w INTO T<only:int>[i=1,100,10] FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, left, right); err == nil {
		t.Error("arity mismatch should fail compilation")
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	left := array.MustParseSchema("A<v:int>[i=1,100,10]")
	right := array.MustParseSchema("B<w:int>[j=1,100,10]")
	q, err := Parse("SELECT A.nope FROM A, B WHERE A.v = B.w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, left, right); err == nil {
		t.Error("unknown column should fail compilation")
	}
}

// End-to-end: run the paper's D:D expression query on real data and verify
// the computed attribute values.
func TestRunExpressionQuery(t *testing.T) {
	mk := func(name string, seed int64) *array.Array {
		s := array.MustParseSchema(name + "<v1:int, v2:int>[i=1,40,10, j=1,40,10]")
		a := array.MustNew(s)
		rng := rand.New(rand.NewSource(seed))
		for i := int64(1); i <= 40; i++ {
			for j := int64(1); j <= 40; j++ {
				if rng.Intn(3) == 0 {
					continue // sparse
				}
				a.MustPut([]int64{i, j}, []array.Value{
					array.IntValue(rng.Int63n(100)), array.IntValue(rng.Int63n(100))})
			}
		}
		return a
	}
	a, b := mk("A", 1), mk("B", 2)
	c := cluster.MustNew(4)
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)

	rep, err := runText(c, `SELECT A.v1 - B.v1, A.v2 - B.v2 FROM A, B
		WHERE A.i = B.i AND A.j = B.j;`, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Matches == 0 {
		t.Fatal("no matches")
	}
	checked := 0
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		av, okA := a.Get(coords)
		bv, okB := b.Get(coords)
		if !okA || !okB {
			t.Fatalf("output cell %v has no source", coords)
		}
		if attrs[0].AsInt() != av[0].AsInt()-bv[0].AsInt() {
			t.Fatalf("cell %v: v1 diff = %v, want %v", coords, attrs[0], av[0].AsInt()-bv[0].AsInt())
		}
		checked++
		return checked < 50
	})
	if checked == 0 {
		t.Error("verified no cells")
	}
}

// End-to-end NDVI-style division query with floats.
func TestRunDivisionQuery(t *testing.T) {
	mk := func(name string) *array.Array {
		s := array.MustParseSchema(name + "<reflectance:float>[x=1,20,5]")
		a := array.MustNew(s)
		for x := int64(1); x <= 20; x++ {
			a.MustPut([]int64{x}, []array.Value{array.FloatValue(float64(x) + 0.5)})
		}
		return a
	}
	c := cluster.MustNew(2)
	c.Load(mk("Band1"), cluster.RoundRobin)
	c.Load(mk("Band2"), cluster.RoundRobin)
	rep, err := runText(c, `SELECT (Band2.reflectance - Band1.reflectance)
		/ (Band2.reflectance + Band1.reflectance)
		FROM Band1, Band2 WHERE Band1.x = Band2.x`, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Matches != 20 {
		t.Fatalf("Matches = %d, want 20", rep.Matches)
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if math.Abs(attrs[0].AsFloat()-0) > 1e-12 {
			t.Fatalf("NDVI of identical bands should be 0, got %v at %v", attrs[0], coords)
		}
		return true
	})
}

// SELECT i, j INTO T<i:int,j:int>[] — Figure 2(b) exactly.
func TestRunUnorderedOutput(t *testing.T) {
	mkA := array.MustNew(array.MustParseSchema("a<v:int>[i=1,9,3]"))
	mkB := array.MustNew(array.MustParseSchema("b<w:int>[j=1,9,3]"))
	// Figure 2 input data.
	avals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	bvals := []int64{2, 3, 5, 6, 7, 9, 10, 11, 12}
	for idx, v := range avals {
		mkA.MustPut([]int64{int64(idx + 1)}, []array.Value{array.IntValue(v)})
	}
	for idx, w := range bvals {
		mkB.MustPut([]int64{int64(idx + 1)}, []array.Value{array.IntValue(w)})
	}
	c := cluster.MustNew(2)
	c.Load(mkA, cluster.RoundRobin)
	c.Load(mkB, cluster.RoundRobin)
	rep, err := runText(c, "SELECT i, j INTO T<i:int, j:int>[] FROM a JOIN b ON a.v = b.w", pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Matching values: 2,3,5,6,7,9 -> 6 matches.
	if rep.Matches != 6 {
		t.Errorf("Matches = %d, want 6", rep.Matches)
	}
}

// numberPair loads A<v:int, s:string>[i=1,4,2], every s "2.5", and
// B<w:int>[i=1,4,2] on two nodes.
func numberPair(t *testing.T) *cluster.Cluster {
	t.Helper()
	a := array.MustNew(array.MustParseSchema("A<v:int, s:string>[i=1,4,2]"))
	b := array.MustNew(array.MustParseSchema("B<w:int>[i=1,4,2]"))
	for i := int64(1); i <= 4; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(10 * i), array.StringValue("2.5")})
		b.MustPut([]int64{i}, []array.Value{array.IntValue(i)})
	}
	c := cluster.MustNew(2)
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)
	return c
}

// TestSelectIntLiteralExact: an integer literal in a SELECT list is
// the int64 it spells, not the nearest float64 (2^53 + 1 is not one).
func TestSelectIntLiteralExact(t *testing.T) {
	rep, err := runText(numberPair(t), "SELECT A.v + 9007199254740993 FROM A, B WHERE A.i = B.i", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 4 {
		t.Fatalf("Matches = %d, want 4", rep.Matches)
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if want := 10*coords[0] + 9007199254740993; attrs[0].Kind != array.TypeInt64 || attrs[0].Int != want {
			t.Errorf("cell %v = %v, want the int %d", coords, attrs[0], want)
		}
		return true
	})
}

// TestSelectBadNumber: a number token SELECT cannot read exactly — an
// integer past int64, a suffix on a float — fails as it does in WHERE.
func TestSelectBadNumber(t *testing.T) {
	c := numberPair(t)
	for _, lit := range []string{"99999999999999999999", "1.5k"} {
		for _, query := range []string{
			"SELECT A.v + " + lit + " FROM A, B WHERE A.i = B.i",
			"SELECT A.v FROM A, B WHERE A.i = B.i AND A.v < " + lit,
		} {
			want := `bad number "` + lit + `"`
			if _, err := runText(c, query, pipeline.Options{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want %s", query, err, want)
			}
		}
	}
}

// TestSelectStringArithmetic: a string column in arithmetic is the
// float it parses to, so "2.5" + 1 is the float 3.5 and -"2.5" the
// float -2.5, in float attributes.
func TestSelectStringArithmetic(t *testing.T) {
	rep, err := runText(numberPair(t), "SELECT A.s + 1, -A.s FROM A, B WHERE A.i = B.i", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rep.Output.Schema.Attrs {
		if a.Type != array.TypeFloat64 {
			t.Errorf("attribute %d is %v, want float", i, a.Type)
		}
	}
	if rep.Matches != 4 {
		t.Fatalf("Matches = %d, want 4", rep.Matches)
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if !attrs[0].Equal(array.FloatValue(3.5)) || !attrs[1].Equal(array.FloatValue(-2.5)) {
			t.Errorf("cell %v = %v, want [3.5 -2.5]", coords, attrs)
		}
		return true
	})
}
