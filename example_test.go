package shufflejoin_test

import (
	"fmt"
	"log"

	"shufflejoin"
)

// The basic flow: open a simulated cluster, declare arrays in the paper's
// schema notation, insert cells, and run an equi-join in AQL.
func Example() {
	db, err := shufflejoin.Open(4)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := db.CreateArray("A<v:int>[i=1,100,10]")
	b, _ := db.CreateArray("B<w:float>[i=1,100,10]")
	for i := int64(1); i <= 100; i++ {
		_ = a.Insert([]int64{i}, i%7)
		_ = b.Insert([]int64{i}, float64(i)/2)
	}
	res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Plan)
	fmt.Println(res.Matches, "matches via", res.Algorithm, "join")
	// Output:
	// mergeJoin(A, B)
	// 100 matches via merge join
}

// Forcing an attribute-to-attribute hash join with a planner choice and
// an unordered destination schema (INTO T<...>[]).
func ExampleDB_Query() {
	db, _ := shufflejoin.Open(3)
	a, _ := db.CreateArray("Events<user:int>[t=1,60,10]")
	b, _ := db.CreateArray("Users<uid:int>[r=1,30,10]")
	for t := int64(1); t <= 60; t++ {
		_ = a.Insert([]int64{t}, t%30)
	}
	for r := int64(1); r <= 30; r++ {
		_ = b.Insert([]int64{r}, r-1)
	}
	res, err := db.Query(
		"SELECT t, r INTO Pairs<t:int, r:int>[] FROM Events, Users WHERE Events.user = Users.uid",
		shufflejoin.WithPlanner("tabu"),
		shufflejoin.WithAlgorithm("hash"),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Algorithm, res.Planner, res.Matches)
	// Output: hash Tabu 60
}

// EXPLAIN: enumerate the optimizer's candidate plans without executing.
func ExampleDB_Explain() {
	db, _ := shufflejoin.Open(2)
	a, _ := db.CreateArray("A<v:int>[i=1,40,10]")
	b, _ := db.CreateArray("B<w:int>[i=1,40,10]")
	for i := int64(1); i <= 40; i++ {
		_ = a.Insert([]int64{i}, i)
		_ = b.Insert([]int64{i}, i)
	}
	ex, err := db.Explain("SELECT A.v FROM A, B WHERE A.i = B.i")
	if err != nil {
		log.Fatal(err)
	}
	// A same-shape dimension join needs no reorganization: the cheapest
	// plan scans both inputs straight into a merge join.
	fmt.Println(ex.Plans[0].Plan, ex.Plans[0].Units)
	// Output: mergeJoin(A, B) chunks
}

// Filters on literals push down to their source array before the join.
func ExampleDB_Query_filter() {
	db, _ := shufflejoin.Open(2)
	a, _ := db.CreateArray("Readings<celsius:float>[t=1,50,10]")
	b, _ := db.CreateArray("Flags<ok:int>[t=1,50,10]")
	for t := int64(1); t <= 50; t++ {
		_ = a.Insert([]int64{t}, float64(t))
		_ = b.Insert([]int64{t}, t%2)
	}
	res, _ := db.Query(`SELECT Readings.celsius FROM Readings, Flags
		WHERE Readings.t = Flags.t AND Flags.ok = 1 AND Readings.celsius > 40.0`)
	fmt.Println(res.Matches)
	// Output: 5
}

// A join over three or more arrays runs as two-way joins in a greedy
// order: each step joins the connected pair with the smallest estimate
// (both inputs' cells plus the estimated output cells), and the last
// step applies the SELECT list.
func ExampleDB_Query_multiWay() {
	db, _ := shufflejoin.Open(3)
	sensors, _ := db.CreateArray("Sensors<site:int>[sid=1,40,10]")
	readings, _ := db.CreateArray("Readings<sensor:int, value:float>[t=1,200,25]")
	sites, _ := db.CreateArray("Sites<code:int, elevation:int>[s=1,8,4]")
	for sid := int64(1); sid <= 40; sid++ {
		_ = sensors.Insert([]int64{sid}, sid%8)
	}
	for t := int64(1); t <= 200; t++ {
		_ = readings.Insert([]int64{t}, t%40+1, float64(t)/2)
	}
	for s := int64(1); s <= 8; s++ {
		_ = sites.Insert([]int64{s}, s%8, s*100)
	}
	res, err := db.Query(`SELECT value / elevation AS per_m FROM Readings, Sensors, Sites
		WHERE Readings.sensor = Sensors.sid AND Sensors.site = Sites.code`)
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range res.JoinOrder {
		fmt.Printf("%s ⋈ %s (estimated %.0f cells)\n", step.Left, step.Right, step.EstimatedCells)
	}
	fmt.Println(res.Matches, "matches into", res.OutputSchema)
	// Output:
	// Sites ⋈ Sensors (estimated 88 cells)
	// Readings ⋈ _join1 (estimated 440 cells)
	// 200 matches into _join2<per_m:float>[t=1,200,25, s=1,8,4]
}
