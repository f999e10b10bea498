package shufflejoin

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	if db.Nodes() != 4 {
		t.Errorf("Nodes = %d", db.Nodes())
	}
	a, err := db.CreateArray("A<v:int>[i=1,100,10]")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateArray("B<w:float>[i=1,100,10]")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		if err := a.Insert([]int64{i}, i%10); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert([]int64{i}, float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 100 {
		t.Errorf("Matches = %d, want 100", res.Matches)
	}
	if res.Algorithm != "merge" {
		t.Errorf("Algorithm = %s, want merge for D:D", res.Algorithm)
	}
	cells := res.Cells()
	if int64(len(cells)) != res.Matches {
		t.Errorf("Cells() = %d", len(cells))
	}
	if _, ok := cells[0].Values[0].(int64); !ok {
		t.Errorf("int attribute surfaced as %T", cells[0].Values[0])
	}
	if _, ok := cells[0].Values[1].(float64); !ok {
		t.Errorf("float attribute surfaced as %T", cells[0].Values[1])
	}
	if !strings.Contains(res.String(), "matches") {
		t.Error("String() not descriptive")
	}
}

func TestInsertAfterSealFails(t *testing.T) {
	db, _ := Open(2)
	a, _ := db.CreateArray("A<v:int>[i=1,10,5]")
	b, _ := db.CreateArray("B<w:int>[i=1,10,5]")
	_ = a.Insert([]int64{1}, 1)
	_ = b.Insert([]int64{1}, 1)
	if _, err := db.Query("SELECT A.v FROM A, B WHERE A.i = B.i"); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert([]int64{2}, 2); err == nil {
		t.Error("Insert after Seal should fail")
	}
}

func TestQueryOptions(t *testing.T) {
	db, _ := Open(3)
	a, _ := db.CreateArray("A<v:int>[i=1,60,10]")
	b, _ := db.CreateArray("B<w:int>[j=1,60,10]")
	for i := int64(1); i <= 60; i++ {
		_ = a.Insert([]int64{i}, i%12)
		_ = b.Insert([]int64{i}, i%12)
	}
	q := "SELECT i, j INTO T<i:int, j:int>[] FROM A JOIN B ON A.v = B.w"
	var want int64 = -1
	for _, planner := range []string{"baseline", "mbh", "tabu", "ilp", "coarse"} {
		res, err := db.Query(q,
			WithPlanner(planner, 100*time.Millisecond),
			WithAlgorithm("hash"),
			WithSelectivity(2),
		)
		if err != nil {
			t.Fatalf("%s: %v", planner, err)
		}
		if want == -1 {
			want = res.Matches
		}
		if res.Matches != want {
			t.Errorf("%s: Matches = %d, want %d", planner, res.Matches, want)
		}
		if res.Algorithm != "hash" {
			t.Errorf("%s: Algorithm = %s", planner, res.Algorithm)
		}
	}
	if want == 0 {
		t.Error("expected matches")
	}
}

func TestQueryOptionErrors(t *testing.T) {
	db, _ := Open(2)
	if _, err := db.Query("SELECT * FROM A, B WHERE A.i = B.i", WithPlanner("quantum")); err == nil {
		t.Error("unknown planner should error")
	}
	if _, err := db.Query("x", WithSelectivity(-1)); err == nil {
		t.Error("negative selectivity should error")
	}
	if _, err := db.Query("x", WithAlgorithm("bogus")); err == nil {
		t.Error("unknown algorithm should error")
	}
	if _, err := db.Query("SELECT * FROM Missing, Gone WHERE Missing.i = Gone.i"); err == nil {
		t.Error("unknown arrays should error")
	}
}

func TestSchedulingAndSequentialOptions(t *testing.T) {
	run := func(opts ...QueryOption) int64 {
		db, _ := Open(3)
		a, _ := db.CreateArray("A<v:int>[i=1,90,10]")
		b, _ := db.CreateArray("B<w:int>[i=1,90,10]")
		for i := int64(1); i <= 90; i++ {
			_ = a.Insert([]int64{i}, i)
			_ = b.Insert([]int64{i}, i)
		}
		res, err := db.Query("SELECT A.v FROM A, B WHERE A.i = B.i", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Matches
	}
	if run(WithFIFOShuffle()) != run(WithParallelism(1)) {
		t.Error("options changed query semantics")
	}
}

// TestRemovedOptionsStillReachable pins what the three facade options
// deleted with the materialized data plane did, against the result
// fingerprint commit a05f911 produced with them on this query:
// WithSequentialCompare() was WithParallelism(1), and WithBatchSize(7)
// and WithMaterializedExecution() returned what the default returns
// (the latter with PeakBatchBytes zeroed, the one behaviour that went
// with it). The fingerprint was regenerated when synthetic rows became
// node-major: the same 850 cells and report, with rows 0…849 in place of
// the stride-4 rows that reached 3,396.
func TestRemovedOptionsStillReachable(t *testing.T) {
	const want = "ab001a2bdf7184021c82e5f57e0a11704e731b7952ff191b2a46c455461fa459"
	for _, tc := range []struct {
		name string
		opts []QueryOption
	}{
		{"default", nil},
		{"sequential", []QueryOption{WithParallelism(1)}},
		{"four-workers", []QueryOption{WithParallelism(4)}},
	} {
		db, _ := Open(4)
		a, _ := db.CreateArray("A<v:int>[i=1,120,10]")
		b, _ := db.CreateArray("B<w:int>[j=1,120,10]")
		for i := int64(1); i <= 120; i++ {
			_ = a.Insert([]int64{i}, i%17)
			_ = b.Insert([]int64{i}, i%13)
		}
		res, err := db.Query("SELECT i, j INTO T<i:int, j:int>[] FROM A JOIN B ON A.v = B.w", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != 850 || res.CellsMoved != 180 {
			t.Errorf("%s: matches=%d moved=%d, want 850 and 180", tc.name, res.Matches, res.CellsMoved)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serveFingerprint(res)))); got != want {
			t.Errorf("%s: result fingerprint %s, want %s", tc.name, got, want)
		}
	}
}

// TestParallelismDeterminism: the facade's one parallelism knob must not
// change anything the user can observe — output cells, statistics, or
// modeled phase times — at any setting, for any planner.
func TestParallelismDeterminism(t *testing.T) {
	type snapshot struct {
		Cells   []Cell
		Matches int64
		Moved   int64
		Clamped int64
		Align   float64
		Compare float64
	}
	run := func(planner string, parallelism int) snapshot {
		db, _ := Open(4)
		a, _ := db.CreateArray("A<v:int>[i=1,200,20]")
		b, _ := db.CreateArray("B<w:int>[j=1,200,20]")
		for i := int64(1); i <= 200; i++ {
			_ = a.Insert([]int64{i}, (i*i)%23)
			_ = b.Insert([]int64{i}, (i*7)%23)
		}
		res, err := db.Query(
			"SELECT i, j INTO T<i:int, j:int>[] FROM A JOIN B ON A.v = B.w",
			WithPlanner(planner, time.Second),
			WithParallelism(parallelism),
		)
		if err != nil {
			t.Fatalf("%s parallelism=%d: %v", planner, parallelism, err)
		}
		return snapshot{
			Cells:   res.Cells(),
			Matches: res.Matches,
			Moved:   res.CellsMoved,
			Clamped: res.ClampedCells,
			Align:   res.AlignSeconds,
			Compare: res.CompareSeconds,
		}
	}
	for _, planner := range []string{"mbh", "tabu", "ilp"} {
		ref := run(planner, 1)
		for _, p := range []int{0, 2, 3} {
			if got := run(planner, p); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: parallelism=%d changed the observable result", planner, p)
			}
		}
	}
	db, _ := Open(2)
	if _, err := db.Query("x", WithParallelism(-1)); err == nil {
		t.Error("negative parallelism should error")
	}
}

func TestGenerators(t *testing.T) {
	db, _ := Open(4)
	ships := db.LoadShipTracks("Broadcast", 20_000, 1)
	band := db.LoadSatelliteBand("Band1", 20_000, 2)
	if ships.CellCount() != 20_000 || band.CellCount() != 20_000 {
		t.Errorf("generator cells = %d / %d", ships.CellCount(), band.CellCount())
	}
	res, err := db.Query(`SELECT Band1.reflectance, Broadcast.ship_id
		FROM Band1, Broadcast
		WHERE Band1.longitude = Broadcast.longitude
		AND Band1.latitude = Broadcast.latitude`,
		WithAlgorithm("merge"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches == 0 {
		t.Error("geo join found no matches")
	}
}

func TestCreateArrayErrors(t *testing.T) {
	db, _ := Open(2)
	if _, err := db.CreateArray("<v:int>[i=1,10,5]"); err == nil {
		t.Error("nameless schema should fail")
	}
	if _, err := db.CreateArray("A<v:frob>[i=1,10,5]"); err == nil {
		t.Error("bad type should fail")
	}
	a, _ := db.CreateArray("A<v:int>[i=1,10,5]")
	if err := a.Insert([]int64{1}, struct{}{}); err == nil {
		t.Error("unsupported value type should fail")
	}
	if err := a.Insert([]int64{99}, 1); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
}

// multiWayDB loads Readings → Sensors → Sites, a 3-way chain, into a new
// DB.
func multiWayDB() *DB {
	db, _ := Open(3)
	loadMultiWay(db)
	return db
}

func loadMultiWay(db *DB) {
	sensors, _ := db.CreateArray("Sensors<site:int>[sid=1,40,10]")
	readings, _ := db.CreateArray("Readings<sensor:int, value:float>[t=1,200,25]")
	sites, _ := db.CreateArray("Sites<code:int, elevation:int>[s=1,8,4]")
	for sid := int64(1); sid <= 40; sid++ {
		_ = sensors.Insert([]int64{sid}, sid%8)
	}
	for ts := int64(1); ts <= 200; ts++ {
		_ = readings.Insert([]int64{ts}, ts%40+1, float64(ts)/2)
	}
	for s := int64(1); s <= 8; s++ {
		_ = sites.Insert([]int64{s}, s%8, s*100)
	}
}

const multiWayQuery = `SELECT * FROM Readings, Sensors, Sites
	WHERE Readings.sensor = Sensors.sid AND Sensors.site = Sites.code`

func TestMultiWayQuery(t *testing.T) {
	db := multiWayDB()
	res, err := db.Query(multiWayQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "multi" {
		t.Errorf("Algorithm = %s, want multi", res.Algorithm)
	}
	if len(res.JoinOrder) != 2 {
		t.Errorf("JoinOrder = %v", res.JoinOrder)
	}
	// Every reading has one sensor, every sensor one site -> 200 rows.
	if res.Matches != 200 {
		t.Errorf("Matches = %d, want 200", res.Matches)
	}
}

// TestMultiWayIntermediatesAreQueryLocal: a k-way join's intermediates
// never reach the catalog, so they are not queryable afterwards.
func TestMultiWayIntermediatesAreQueryLocal(t *testing.T) {
	db := multiWayDB()
	if _, err := db.Query(multiWayQuery); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query("SELECT * FROM _join1, Readings WHERE _join1.sid = Readings.sensor")
	if err == nil || !strings.Contains(err.Error(), "not in catalog") {
		t.Errorf("query over a k-way intermediate: err = %v, want \"not in catalog\"", err)
	}
}

func TestQueryUnknownArray(t *testing.T) {
	db := multiWayDB()
	for _, q := range []string{
		"SELECT * FROM Readings, Missing WHERE Readings.sensor = Missing.sid",
		"SELECT * FROM Readings, Sensors, Missing WHERE Readings.sensor = Sensors.sid AND Sensors.site = Missing.code",
	} {
		_, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), `"Missing" not in catalog`) {
			t.Errorf("%s: err = %v, want \"Missing\" not in catalog", q, err)
		}
	}
}

// TestMergePaperWorkflow is §2.3.1's D:D merge of Figure 1's A with B,
// whose attribute i must become a dimension first, as one AQL query.
func TestMergePaperWorkflow(t *testing.T) {
	db, _ := Open(2)
	a, _ := db.CreateArray("A<v1:int, v2:float>[i=1,6,3, j=1,6,3]")
	for _, c := range []struct {
		i, j, v1 int64
		v2       float64
	}{
		{1, 2, 5, 3.0}, {1, 3, 1, 4.7},
		{2, 1, 1, 0.2}, {2, 2, 7, 1.3},
		{3, 1, 1, 0.9}, {3, 2, 0, 0.4}, {3, 3, 0, 7.5},
		{4, 1, 6, 1.4}, {4, 2, 3, 6.9},
		{5, 1, 3, 0.8}, {5, 2, 3, 1.4}, {5, 3, 6, 9.1},
		{6, 1, 9, 2.7}, {6, 2, 5, 7.9}, {6, 3, 5, 8.7},
	} {
		if err := a.Insert([]int64{c.i, c.j}, c.v1, c.v2); err != nil {
			t.Fatal(err)
		}
	}
	// Occupy positions matching three of A's occupied cells once i is a
	// dimension: (i=1,j=2), (i=3,j=1), (i=6,j=3).
	b, _ := db.CreateArray("B<w1:int, w2:float, i:int>[j=1,6,3]")
	_ = b.Insert([]int64{2}, 100, 1.0, 1)
	_ = b.Insert([]int64{1}, 200, 2.0, 3)
	_ = b.Insert([]int64{3}, 300, 3.0, 6)
	res, err := db.Query(`SELECT A.v1, A.v2, B.w1, B.w2
		INTO T<v1:int, v2:float, w1:int, w2:float>[i=1,6,3, j=1,6,3]
		FROM A, B WHERE A.i = B.i AND A.j = B.j`)
	if err != nil {
		t.Fatal(err)
	}
	// A attrs then B attrs.
	want := []Cell{
		{Coords: []int64{1, 2}, Values: []any{int64(5), 3.0, int64(100), 1.0}},
		{Coords: []int64{3, 1}, Values: []any{int64(1), 0.9, int64(200), 2.0}},
		{Coords: []int64{6, 3}, Values: []any{int64(5), 8.7, int64(300), 3.0}},
	}
	if got := res.Cells(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged cells = %v, want %v", got, want)
	}
}

func TestExplain(t *testing.T) {
	db, _ := Open(4)
	a, _ := db.CreateArray("A<v:int>[i=1,200,20]")
	b, _ := db.CreateArray("B<w:int>[i=1,200,20]")
	for i := int64(1); i <= 200; i++ {
		_ = a.Insert([]int64{i}, i%9)
		_ = b.Insert([]int64{i}, i%9)
	}
	ex, err := db.Explain("SELECT A.v FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Plans) < 3 {
		t.Fatalf("only %d plans enumerated", len(ex.Plans))
	}
	// Cheapest first, and a same-shape D:D join must choose the pure scan
	// merge plan.
	for i := 1; i < len(ex.Plans); i++ {
		if ex.Plans[i].Cost < ex.Plans[i-1].Cost {
			t.Fatal("plans not sorted by cost")
		}
	}
	if ex.Plans[0].Plan != "mergeJoin(A, B)" {
		t.Errorf("best plan = %q, want mergeJoin(A, B)", ex.Plans[0].Plan)
	}
	if ex.Selectivity <= 0 {
		t.Error("no selectivity estimate")
	}
	if _, err := db.Explain("SELECT nope FROM A, B WHERE A.i = B.i"); err == nil {
		t.Error("bad query should fail to explain")
	}
}

func TestRedimensionAndSaveAs(t *testing.T) {
	db, _ := Open(3)
	a, _ := db.CreateArray("Events<user:int>[t=1,120,20]")
	for ts := int64(1); ts <= 120; ts++ {
		_ = a.Insert([]int64{ts}, ts%30)
	}
	// Reorganize so user becomes a dimension.
	byUser, rep, err := a.Redimension("ByUser<t:int>[user=0,29,10]")
	if err != nil {
		t.Fatal(err)
	}
	if byUser.CellCount() != 120 {
		t.Errorf("cells = %d", byUser.CellCount())
	}
	if rep.TotalSeconds <= 0 || rep.CellsMoved == 0 {
		t.Errorf("report = %+v", rep)
	}
	// The redimensioned array is queryable.
	b, _ := db.CreateArray("Users<name:string>[uid=0,29,10]")
	for uid := int64(0); uid < 30; uid++ {
		_ = b.Insert([]int64{uid}, "u")
	}
	res, err := db.Query("SELECT t FROM ByUser, Users WHERE ByUser.user = Users.uid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 120 {
		t.Errorf("Matches = %d, want 120", res.Matches)
	}
	// Chain: save the join output and query it again.
	saved, err := res.SaveAs(db, "Joined")
	if err != nil {
		t.Fatal(err)
	}
	if saved.CellCount() != 120 {
		t.Errorf("saved cells = %d", saved.CellCount())
	}
	res2, err := db.Query("SELECT Joined.t FROM Joined, Users WHERE Joined.user = Users.uid")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matches != 120 {
		t.Errorf("chained Matches = %d", res2.Matches)
	}
	if _, err := res.SaveAs(db, ""); err == nil {
		t.Error("empty name should fail")
	}
	if _, _, err := a.Redimension("<t:int>[user=0,29,10]"); err == nil {
		t.Error("nameless target should fail")
	}
}

// TestPlanCacheAndGreedyOptions: the facade's plan-cache and greedy-planning
// options must not change query semantics, and must report how each query's
// plans were obtained via Result.PlanSource.
func TestPlanCacheAndGreedyOptions(t *testing.T) {
	open := func() *DB {
		db, _ := Open(3)
		a, _ := db.CreateArray("A<v:int>[i=1,120,10]")
		b, _ := db.CreateArray("B<w:int>[i=1,120,10]")
		for i := int64(1); i <= 120; i++ {
			_ = a.Insert([]int64{i}, i)
			_ = b.Insert([]int64{i}, i)
		}
		return db
	}
	q := "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"

	db := open()
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ref.PlanSource != "full" {
		t.Errorf("default PlanSource = %q, want full", ref.PlanSource)
	}

	pc := NewPlanCache()
	cold, err := db.Query(q, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanSource != "full" {
		t.Errorf("cold PlanSource = %q, want full", cold.PlanSource)
	}
	hit, err := db.Query(q, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	if hit.PlanSource != "cached" {
		t.Errorf("hit PlanSource = %q, want cached", hit.PlanSource)
	}
	st := pc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Rejects != 0 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 0 rejects", st)
	}
	for tag, res := range map[string]*Result{"cold": cold, "hit": hit} {
		if res.Matches != ref.Matches || !reflect.DeepEqual(res.Cells(), ref.Cells()) {
			t.Errorf("%s: cached path changed query output", tag)
		}
		if res.CellsMoved != ref.CellsMoved || res.CompareSeconds != ref.CompareSeconds {
			t.Errorf("%s: cached path changed modeled execution", tag)
		}
	}

	greedy, err := db.Query(q, WithGreedyPlanning())
	if err != nil {
		t.Fatal(err)
	}
	if greedy.PlanSource != "greedy" && greedy.PlanSource != "full" {
		t.Errorf("greedy PlanSource = %q", greedy.PlanSource)
	}
	if greedy.PlanSource == "greedy" && greedy.PlanRegret < 0 {
		t.Errorf("PlanRegret = %g, want >= 0", greedy.PlanRegret)
	}
	if greedy.Matches != ref.Matches || !reflect.DeepEqual(greedy.Cells(), ref.Cells()) {
		t.Error("greedy planning changed query output")
	}

	if _, err := db.Query(q, WithPlanCache(nil)); err == nil {
		t.Error("nil plan cache should error")
	}
	if _, err := db.Query(q, WithGreedyPlanning(-0.5)); err == nil {
		t.Error("non-positive epsilon should error")
	}
}

// TestPlanSourceNamesGreedyPlanner: PlanSource is "greedy" exactly when
// the greedy planner produced the assignment, with or without a pinned
// algorithm and whether or not the greedy plan fell back to the
// configured planner.
func TestPlanSourceNamesGreedyPlanner(t *testing.T) {
	db, _ := Open(3)
	a, _ := db.CreateArray("A<v:int>[i=1,120,10]")
	b, _ := db.CreateArray("B<w:int>[i=1,120,10]")
	for i := int64(1); i <= 120; i++ {
		_ = a.Insert([]int64{i}, i)
		_ = b.Insert([]int64{i}, i)
	}
	q := "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []QueryOption
	}{
		{"greedy", []QueryOption{WithGreedyPlanning()}},
		{"greedy+hash", []QueryOption{WithGreedyPlanning(), WithAlgorithm("hash")}},
		{"merge+greedy", []QueryOption{WithAlgorithm("merge"), WithGreedyPlanning()}},
		{"greedy-fallback-tabu", []QueryOption{WithGreedyPlanning(1e-12), WithPlanner("tabu")}},
		{"hash", []QueryOption{WithAlgorithm("hash")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := db.Query(q, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if (res.PlanSource == "greedy") != (res.Planner == "Greedy") {
				t.Errorf("%s: PlanSource = %q from the %s planner", res.Plan, res.PlanSource, res.Planner)
			}
			if res.PlanSource != "greedy" && res.PlanSource != "full" {
				t.Errorf("PlanSource = %q", res.PlanSource)
			}
			if res.PlanSource == "greedy" && res.PlanRegret < 0 {
				t.Errorf("PlanRegret = %g, want >= 0", res.PlanRegret)
			}
			if res.Matches != ref.Matches || !reflect.DeepEqual(res.Cells(), ref.Cells()) {
				t.Error("planner choice changed query output")
			}
		})
	}
}

// TestInternedStringsCountsDistinct: Result.InternedStrings counts the
// distinct strings the query's dictionary holds once both sides are
// placed — the union of both sides' string keys and string carries — at
// every Parallelism setting.
func TestInternedStringsCountsDistinct(t *testing.T) {
	db, _ := Open(4)
	a, _ := db.CreateArray("A<v:string, a:string>[i=1,40,8]")
	b, _ := db.CreateArray("B<w:string, b:string>[j=1,40,8]")
	words := []string{"ship", "port", "sea", "dock"}
	for i := int64(1); i <= 40; i++ {
		_ = a.Insert([]int64{i}, words[i%4], fmt.Sprintf("a%d", i%5))
		_ = b.Insert([]int64{i}, words[i%3], fmt.Sprintf("b%d", i%7))
	}
	// Keys: the four words (B's three are among them); carries: a0..a4
	// and b0..b6.
	const want = 4 + 5 + 7
	for _, p := range []int{1, 2, 8} {
		res, err := db.Query("SELECT A.a, B.b FROM A JOIN B ON A.v = B.w", WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches == 0 {
			t.Fatal("the string join matched nothing")
		}
		if res.InternedStrings != want {
			t.Errorf("Parallelism %d: InternedStrings = %d, want %d", p, res.InternedStrings, want)
		}
	}
}
