package aql

import (
	"reflect"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// threeWayCluster loads Users (small), Clicks (large), Regions (small):
// Clicks joins Users on user id, Users joins Regions on region id.
func threeWayCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.MustNew(3)

	users := array.MustNew(array.MustParseSchema("Users<region:int>[uid=1,50,10]"))
	for uid := int64(1); uid <= 50; uid++ {
		users.MustPut([]int64{uid}, []array.Value{array.IntValue(uid % 5)})
	}
	clicks := array.MustNew(array.MustParseSchema("Clicks<who:int>[t=1,400,50]"))
	for ts := int64(1); ts <= 400; ts++ {
		clicks.MustPut([]int64{ts}, []array.Value{array.IntValue(ts%50 + 1)})
	}
	regions := array.MustNew(array.MustParseSchema("Regions<rid:int, pop:int>[r=1,5,5]"))
	for r := int64(1); r <= 5; r++ {
		regions.MustPut([]int64{r}, []array.Value{array.IntValue(r % 5), array.IntValue(r * 1000)})
	}
	for _, a := range []*array.Array{users, clicks, regions} {
		a.SortAll()
		c.Load(a, cluster.RoundRobin)
	}
	return c
}

const threeWayQuery = `SELECT *
	FROM Clicks, Users, Regions
	WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`

func TestRunMultiThreeWay(t *testing.T) {
	c := threeWayCluster(t)
	res, err := runMultiText(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	// Intermediates are query-local: the catalog does not learn them.
	for _, name := range []string{"_join1", "_join2"} {
		if _, err := c.Catalog.Lookup(name); err == nil {
			t.Errorf("intermediate %s registered in the catalog", name)
		}
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	// Every click matches exactly one user; every user matches exactly one
	// region -> 400 final rows.
	if n := res.Output.CellCount(); n != 400 || res.Steps[1].Matches != 400 {
		t.Errorf("%d output cells, %d last-step matches, want 400", n, res.Steps[1].Matches)
	}
	if res.Output != res.Steps[1].Output || res.Output.Schema.Name != "_join2" {
		t.Errorf("output %s is not the last step's, named _join2", res.Output.Schema)
	}
	for i, step := range res.Steps {
		if step.Total <= 0 {
			t.Errorf("step %d has no modeled time", i)
		}
	}
	if len(res.Plan) != 2 {
		t.Errorf("Plan = %+v", res.Plan)
	}
	// The output must carry fields from all three sources. The join key
	// pair (region = rid) merges, so exactly one of the two survives.
	s := res.Output.Schema
	for _, want := range []string{"who", "pop"} {
		if !s.HasAttr(want) && !s.HasDim(want) {
			t.Errorf("output schema %s missing %s", s, want)
		}
	}
	if !s.HasAttr("region") && !s.HasAttr("rid") {
		t.Errorf("output schema %s lost the join key", s)
	}
}

func TestRunMultiGreedyOrder(t *testing.T) {
	// The greedy optimizer should join the two small relations (Users ⋈
	// Regions) first: that intermediate is far smaller than anything
	// involving Clicks.
	c := threeWayCluster(t)
	res, err := runMultiText(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Plan[0].Left + " ⋈ " + res.Plan[0].Right
	if !strings.Contains(first, "Users") || !strings.Contains(first, "Regions") {
		t.Errorf("first join = %q, want Users ⋈ Regions (smallest intermediate)", first)
	}
}

func TestRunMultiProjection(t *testing.T) {
	c := threeWayCluster(t)
	res, err := runMultiText(c, `SELECT pop, who FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Schema.Attrs) != 2 {
		t.Errorf("projected attrs = %v", res.Output.Schema.Attrs)
	}
	if n := res.Output.CellCount(); n != 400 {
		t.Errorf("%d output cells, want 400", n)
	}
}

// TestRunMultiMatchesTwoStepManual: a three-way query gives, cell for
// cell, what running its two joins by hand, in its order, gives with the
// same SELECT list and INTO on the second join: SELECT *, SELECT
// expressions with an alias, and INTO.
func TestRunMultiMatchesTwoStepManual(t *testing.T) {
	for _, sel := range []string{
		"SELECT *",
		"SELECT pop * 2 + who AS score, -t / pop, rid",
		"SELECT pop - who, t INTO T<d:int, ts:int>[t=1,400,100]",
		"SELECT * INTO T<who:int, pop:int>[t=1,400,100, r=1,5,5]",
	} {
		auto, err := runMultiText(threeWayCluster(t), sel+` FROM Clicks, Users, Regions
			WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		c := threeWayCluster(t)
		step1, err := runText(c, "SELECT * FROM Regions, Users WHERE Regions.rid = Users.region", pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		step1.Output.Schema.Name = "UR"
		c.Load(step1.Output, cluster.RoundRobin)
		step2, err := runText(c, sel+" FROM Clicks, UR WHERE Clicks.who = UR.uid", pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		if auto.Output.Schema.Name == "_join2" {
			step2.Output.Schema.Name = "_join2"
		}
		if err := sameArray(auto.Output, step2.Output); err != nil {
			t.Errorf("%s: %v", sel, err)
		}
		if n := auto.Output.CellCount(); n != 400 {
			t.Errorf("%s: %d output cells, want 400", sel, n)
		}
	}
}

// TestRunMultiSelectNames: a k-way SELECT item is named as a two-way
// query names it, and a source dimension may be selected.
func TestRunMultiSelectNames(t *testing.T) {
	c := threeWayCluster(t)
	for _, tc := range []struct{ sel, want string }{
		{"SELECT pop AS p", "_join2<p:int>[t=1,400,50, r=1,5,5]"},
		{"SELECT Clicks.t AS ts, pop", "_join2<ts:int, pop:int>[t=1,400,50, r=1,5,5]"},
		// Users.uid is the right predicate column of the last step, which
		// the intermediate would name who.
		{"SELECT Users.uid", "_join2<uid:int>[t=1,400,50, r=1,5,5]"},
	} {
		res, err := runMultiText(c, tc.sel+` FROM Clicks, Users, Regions
			WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sel, err)
		}
		if got := res.Output.Schema.String(); got != tc.want {
			t.Errorf("%s: output %s, want %s", tc.sel, got, tc.want)
		}
		if n := res.Output.CellCount(); n != 400 {
			t.Errorf("%s: %d output cells, want 400", tc.sel, n)
		}
	}
	res, err := runMultiText(c, `SELECT Clicks.t AS ts, Users.uid FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if attrs[0].AsInt() != coords[0] || attrs[1].AsInt() != coords[0]%50+1 {
			t.Errorf("cell %v = %v, want ts = t and uid = t%%50 + 1", coords, attrs)
		}
		return true
	})
}

// TestRunMultiIntermediateStatistics: a query-local intermediate gives
// planning the attribute statistics a catalog entry would, so a step
// keyed on its attribute estimates and models exactly like the same join
// run by hand over the registered intermediate.
func TestRunMultiIntermediateStatistics(t *testing.T) {
	load := func() *cluster.Cluster {
		c := cluster.MustNew(3)
		a := array.MustNew(array.MustParseSchema("PA<x:int>[i=1,300,30]"))
		for i := int64(1); i <= 300; i++ {
			a.MustPut([]int64{i}, []array.Value{array.IntValue(i * i % 17)})
		}
		b := array.MustNew(array.MustParseSchema("PB<y:int, z:int>[j=1,60,10]"))
		for j := int64(1); j <= 60; j++ {
			b.MustPut([]int64{j}, []array.Value{array.IntValue(j % 9), array.IntValue(j % 5)})
		}
		pc := array.MustNew(array.MustParseSchema("PC<w:int>[k=1,20,5]"))
		for k := int64(1); k <= 20; k++ {
			pc.MustPut([]int64{k}, []array.Value{array.IntValue(k % 5)})
		}
		for _, arr := range []*array.Array{a, b, pc} {
			arr.SortAll()
			c.Load(arr, cluster.RoundRobin)
		}
		return c
	}
	auto, err := runMultiText(load(), "SELECT * FROM PA, PB, PC WHERE PA.x = PB.y AND PB.z = PC.w", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, s := range auto.Plan {
		order = append(order, s.Left+" ⋈ "+s.Right)
	}
	if want := []string{"PC ⋈ PB", "PA ⋈ _join1"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	c := load()
	step1, err := runText(c, "SELECT * FROM PC, PB WHERE PC.w = PB.z", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	step1.Output.Schema.Name = "_join1"
	c.Load(step1.Output, cluster.RoundRobin)
	step2, err := runText(c, "SELECT * FROM PA, _join1 WHERE PA.x = _join1.y", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := auto.Steps[1]
	if got.Selectivity != step2.Selectivity || got.CompareTime != step2.CompareTime || got.Matches != step2.Matches {
		t.Errorf("k-way step: sel %g compare %g matches %d; by hand: sel %g compare %g matches %d",
			got.Selectivity, got.CompareTime, got.Matches, step2.Selectivity, step2.CompareTime, step2.Matches)
	}
}

// TestRunMultiStarIntoNamesFromColumns: SELECT * INTO names FROM
// columns, whatever the greedy order calls them. The first step joins
// Regions with Users, and its intermediate keeps Regions.rid for
// Users.region; INTO's region still reads Users.region, cell for cell as
// INTO's rid reads Regions.rid. A name no FROM array has fails as an
// unknown column, naming no intermediate.
func TestRunMultiStarIntoNamesFromColumns(t *testing.T) {
	const from = ` FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`
	run := func(attrs string) (*MultiResult, error) {
		return runMultiText(threeWayCluster(t), "SELECT * INTO T<"+attrs+">[t=1,400,100, r=1,5,5]"+from, pipeline.Options{})
	}
	byRegion, err := run("who:int, region:int, pop:int")
	if err != nil {
		t.Fatal(err)
	}
	byRid, err := run("who:int, rid:int, pop:int")
	if err != nil {
		t.Fatal(err)
	}
	if first := byRegion.Plan[0]; first.Left != "Regions" || first.Right != "Users" {
		t.Fatalf("first step %s ⋈ %s, want Regions ⋈ Users", first.Left, first.Right)
	}
	got := byRegion.Output
	if want := "T<who:int, region:int, pop:int>[t=1,400,100, r=1,5,5]"; got.Schema.String() != want {
		t.Fatalf("output %s, want %s", got.Schema, want)
	}
	got.Schema.Attrs[1].Name = "rid"
	if err := sameArray(got, byRid.Output); err != nil {
		t.Error(err)
	}
	if n := got.CellCount(); n != 400 {
		t.Errorf("%d output cells, want 400", n)
	}
	_, err = run("who:int, nosuch:int")
	if err == nil || err.Error() != "aql: column nosuch not found in any FROM array" {
		t.Errorf("unknown INTO name: err = %v", err)
	}
}

func TestRunMultiErrors(t *testing.T) {
	c := threeWayCluster(t)
	cases := []string{
		// Two-way query routed to RunMulti.
		"SELECT * FROM Users, Regions WHERE Users.region = Regions.rid",
		// Disconnected array (no predicate touches Regions).
		"SELECT * FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Clicks.t = Users.uid",
		// INTO with fewer attributes than the SELECT list.
		"SELECT pop, who INTO T<x:int>[i=1,10,5] FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		// A SELECT column its array does not have.
		"SELECT Clicks.pop FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		// Unknown array.
		"SELECT * FROM Clicks, Users, Ghosts WHERE Clicks.who = Users.uid AND Users.region = Ghosts.rid",
		// Single-array predicate.
		"SELECT * FROM Clicks, Users, Regions WHERE Users.uid = Users.region AND Clicks.who = Users.uid",
	}
	for _, q := range cases {
		if _, err := runMultiText(c, q, pipeline.Options{}); err == nil {
			t.Errorf("RunMulti(%q) succeeded, want error", q)
		}
	}
}

// TestRunMultiErrorsInFromOrder: an error that names several operands
// names them in FROM order, the intermediate in the place of the earlier
// of its inputs, so it reads the same on every run.
func TestRunMultiErrorsInFromOrder(t *testing.T) {
	c := cluster.MustNew(3)
	for _, lit := range []string{"P<a:int>[i=1,20,5]", "Q<b:int>[i=1,20,5]", "R<c:int>[i=1,20,5]", "S<d:int>[i=1,20,5]"} {
		a := array.MustNew(array.MustParseSchema(lit))
		for i := int64(1); i <= 20; i++ {
			a.MustPut([]int64{i}, []array.Value{array.IntValue(i % 3)})
		}
		a.SortAll()
		c.Load(a, cluster.RoundRobin)
	}
	for _, tc := range []struct{ query, want string }{
		{"SELECT * FROM P, Q, R WHERE P.i = Q.i AND Q.i = R.i AND i = 1",
			"aql: unqualified column i is ambiguous across P and Q"},
		{"SELECT i FROM P, Q, R WHERE P.i = Q.i AND Q.i = R.i",
			"aql: unqualified column i is ambiguous across P and Q"},
		{"SELECT * FROM P, Q, R, S WHERE P.i = Q.i",
			"aql: remaining arrays [_join1 R S] are not connected by any predicate (cross products unsupported)"},
	} {
		for run := 0; run < 20; run++ {
			_, err := runMultiText(c, tc.query, pipeline.Options{})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, run %d: err = %v, want %s", tc.query, run, err, tc.want)
			}
		}
	}
}

func TestRunRejectsMultiWay(t *testing.T) {
	c := threeWayCluster(t)
	if _, err := runText(c, threeWayQuery, pipeline.Options{}); err == nil {
		t.Error("Run should reject three-way queries")
	}
}

func TestParseThreeWayFrom(t *testing.T) {
	q, err := Parse(threeWayQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 3 {
		t.Errorf("From = %v", q.From)
	}
}

// TestMultiPlanEstimateIsPairCost: each step of the plan reports the
// estimate that chose it, pairCost over the step's two inputs — the
// catalog arrays, or the intermediate an earlier step dealt round-robin
// — not the step's actual match count.
func TestMultiPlanEstimateIsPairCost(t *testing.T) {
	c := threeWayCluster(t)
	res, err := runMultiText(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 2 || len(res.Steps) != 2 {
		t.Fatalf("steps = %+v, want 2", res.Plan)
	}
	live := map[string]*cluster.Distributed{}
	for _, name := range []string{"Clicks", "Users", "Regions"} {
		d, err := c.Catalog.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		live[name] = d
	}
	live["_join1"] = cluster.Distribute(res.Steps[0].Output, c.K, cluster.RoundRobin)
	// The join column each array contributes at each step.
	cols := []map[string]string{
		{"Users": "region", "Regions": "rid"},
		{"Clicks": "who", "_join1": "uid"},
	}
	for i, s := range res.Plan {
		pred := join.Predicate{{
			Left:  join.Term{Array: s.Left, Name: cols[i][s.Left]},
			Right: join.Term{Array: s.Right, Name: cols[i][s.Right]},
		}}
		want, err := pairCost(c, live[s.Left], live[s.Right], pred)
		if err != nil {
			t.Fatalf("step %d %+v: %v", i, s, err)
		}
		if s.EstimatedCost != want {
			t.Errorf("step %d %s ⋈ %s: estimate %v, want pairCost %v", i, s.Left, s.Right, s.EstimatedCost, want)
		}
		if s.EstimatedCost == float64(res.Steps[i].Matches) {
			t.Errorf("step %d estimate %v equals its match count", i, s.EstimatedCost)
		}
	}
}

// TestRunMultiSameNamedColumns: a step's intermediate keeps one column
// per name, the left input's, so a query that still needs the right
// input's column of that name fails, naming both columns, instead of
// reading the other array's values. A same-named column the step
// equates with the left one keeps working.
func TestRunMultiSameNamedColumns(t *testing.T) {
	c := cluster.MustNew(2)
	for _, f := range []struct {
		schema string
		val    func(i int64) int64
	}{
		{"A<v:int>[i=1,4,2]", func(i int64) int64 { return 100 + i }},
		{"B<v:int>[i=1,4,2]", func(i int64) int64 { return i }},
		{"C<w:int>[j=1,4,2]", func(j int64) int64 { return j }},
	} {
		a := array.MustNew(array.MustParseSchema(f.schema))
		for i := int64(1); i <= 4; i++ {
			a.MustPut([]int64{i}, []array.Value{array.IntValue(f.val(i))})
		}
		a.SortAll()
		c.Load(a, cluster.RoundRobin)
	}
	for _, q := range []string{
		"SELECT * FROM A, B, C WHERE A.i = B.i AND B.v = C.w",
		"SELECT B.v FROM A, B, C WHERE A.i = B.i AND A.i = C.j",
	} {
		_, err := runMultiText(c, q, pipeline.Options{})
		if err == nil || !strings.Contains(err.Error(), "B.v") || !strings.Contains(err.Error(), "A.v") {
			t.Errorf("%s: err = %v, want one naming B.v and A.v", q, err)
		}
	}

	// A ⋈ C first: the last step joins _join1 with B, so B.v is read from
	// B, as a two-way query reads it.
	res, err := runMultiText(c, "SELECT B.v FROM A, B, C WHERE A.i = C.j AND A.i = B.i", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if attrs[0].AsInt() != coords[0] {
			t.Errorf("cell %v: v = %v, want B's value %d", coords, attrs[0], coords[0])
		}
		return true
	})

	res, err = runMultiText(c, "SELECT A.v, C.w FROM A, B, C WHERE A.i = B.i AND B.i = C.j", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Output.CellCount(); n != 4 {
		t.Errorf("%d output cells, want 4", n)
	}
	for _, ch := range res.Output.Chunks {
		for row := range ch.Len() {
			if v, w := ch.Cols[0].Value(row), ch.Cols[1].Value(row); v.AsInt() != 100+w.AsInt() {
				t.Errorf("row (v %v, w %v): v is not A's value for w's i", v, w)
			}
		}
	}
}
