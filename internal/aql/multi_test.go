package aql

import (
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
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
	res, err := RunMulti(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	// Every click matches exactly one user; every user matches exactly one
	// region -> 400 final rows.
	if res.Matches != 400 {
		t.Errorf("Matches = %d, want 400", res.Matches)
	}
	if res.TotalSeconds <= 0 {
		t.Error("no aggregate timing")
	}
	if len(res.Order) != 2 {
		t.Errorf("Order = %v", res.Order)
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
	res, err := RunMulti(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Order[0]
	if !strings.Contains(first, "Users") || !strings.Contains(first, "Regions") {
		t.Errorf("first join = %q, want Users ⋈ Regions (smallest intermediate)", first)
	}
}

func TestRunMultiProjection(t *testing.T) {
	c := threeWayCluster(t)
	res, err := RunMulti(c, `SELECT pop, who FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output.Schema.Attrs) != 2 {
		t.Errorf("projected attrs = %v", res.Output.Schema.Attrs)
	}
	if res.Matches != 400 {
		t.Errorf("Matches = %d, want 400", res.Matches)
	}
}

func TestRunMultiMatchesTwoStepManual(t *testing.T) {
	// Cross-check against running the two joins by hand.
	c := threeWayCluster(t)
	auto, err := RunMulti(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := threeWayCluster(t)
	step1, err := Run(c2, "SELECT * FROM Users, Regions WHERE Users.region = Regions.rid", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	step1.Output.Schema.Name = "UR"
	c2.Load(step1.Output, cluster.RoundRobin)
	step2, err := Run(c2, "SELECT * FROM Clicks, UR WHERE Clicks.who = UR.uid", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Matches != step2.Matches {
		t.Errorf("multi-join %d matches, manual pipeline %d", auto.Matches, step2.Matches)
	}
}

func TestRunMultiErrors(t *testing.T) {
	c := threeWayCluster(t)
	cases := []string{
		// Two-way query routed to RunMulti.
		"SELECT * FROM Users, Regions WHERE Users.region = Regions.rid",
		// Disconnected array (no predicate touches Regions).
		"SELECT * FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Clicks.t = Users.uid",
		// Expression select.
		"SELECT pop + 1 FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		// INTO unsupported.
		"SELECT * INTO T<x:int>[i=1,10,5] FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		// Unknown array.
		"SELECT * FROM Clicks, Users, Ghosts WHERE Clicks.who = Users.uid AND Users.region = Ghosts.rid",
		// Single-array predicate.
		"SELECT * FROM Clicks, Users, Regions WHERE Users.uid = Users.region AND Clicks.who = Users.uid",
	}
	for _, q := range cases {
		if _, err := RunMulti(c, q, pipeline.Options{}); err == nil {
			t.Errorf("RunMulti(%q) succeeded, want error", q)
		}
	}
}

func TestRunRejectsMultiWay(t *testing.T) {
	c := threeWayCluster(t)
	if _, err := Run(c, threeWayQuery, pipeline.Options{}); err == nil {
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

func TestExplainMulti(t *testing.T) {
	c := threeWayCluster(t)
	plan, err := ExplainMulti(c, threeWayQuery, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %v", plan.Steps)
	}
	// Small pair first, as in TestRunMultiGreedyOrder.
	first := plan.Steps[0]
	pair := first.Left + " " + first.Right
	if !strings.Contains(pair, "Users") || !strings.Contains(pair, "Regions") {
		t.Errorf("first step = %+v", first)
	}
	// The preview must not register intermediates in the real catalog.
	if _, err := c.Catalog.Lookup("_join1"); err == nil {
		t.Error("ExplainMulti leaked an intermediate into the catalog")
	}
	if _, err := ExplainMulti(c, "SELECT * FROM Users, Regions WHERE Users.region = Regions.rid", pipeline.Options{}); err == nil {
		t.Error("two-way query should be rejected")
	}
}
