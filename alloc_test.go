package shufflejoin

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// allocShapes are the queries TestQueryAllocCeilings holds to a ceiling:
// hash_hot's shape (an AQL hash join on an attribute, 1% of cells on four
// hot keys, output on a synthetic row dimension), serve_mix's (a join
// on the shared dimension, output keeping it), merge_skew's (a merge join
// on two shared dimensions over Zipf-dense chunks), a SELECT list of
// expressions over hash_hot's data, wide_plan's (hash_hot's query on
// 32 nodes, planned by Tabu), and a SELECT list over a three-way star
// whose last step joins 20,000 cells. Each builds its database.
var allocShapes = []struct {
	name  string
	nodes int
	query string
	opts  []QueryOption
	load  func(t *testing.T, db *DB)
	// ceiling is the most allocations one query may make on average: the
	// highest count of eight measurements (Go 1.24, 2 vCPU: 794, 307,
	// 1,306, 822, 1,057 and 1,420) plus 2 %. Parsing a query a second time, 25
	// to 47 allocations, fails the gate. wide_plan's count takes one of
	// 1,023, 1,040 and 1,057 per process (24 processes), though its
	// output is no longer sorted, so the sort's scratch is not why.
	ceiling uint64
}{
	{"hash_hot", 4, "SELECT A.i, B.i INTO T<ai:int, bi:int>[] FROM A JOIN B ON A.v = B.w", nil, loadHashHot, 809},
	{"serve_mix", 4, "SELECT IA.v, IB.w FROM IA, IB WHERE IA.i = IB.i", nil, loadServePair, 313},
	{"merge_skew", 4, "SELECT MA.v, MB.w FROM MA, MB WHERE MA.i = MB.i AND MA.j = MB.j", nil, loadMergeSkew, 1332},
	{"select_expr", 4, "SELECT A.v * 2 + B.w, -A.i / B.i INTO T<x:int, y:float>[] FROM A JOIN B ON A.v = B.w", nil, loadHashHot, 838},
	{"wide_plan", 32, "SELECT A.i, B.i INTO T<ai:int, bi:int>[] FROM A JOIN B ON A.v = B.w", []QueryOption{WithPlanner("tabu")}, loadHashHot, 1078},
	{"three_way", 4, `SELECT Readings.value, Sites.elevation FROM Readings, Sensors, Sites
		WHERE Readings.sensor = Sensors.sid AND Sensors.site = Sites.code`, nil, loadThreeWay, 1448},
}

// loadThreeWay inserts a star of three arrays: 20,000 readings, each of
// one of 400 sensors, each at one of 16 sites.
func loadThreeWay(t *testing.T, db *DB) {
	readings, err := db.CreateArray("Readings<sensor:int, value:float>[t=1,20000,1000]")
	if err != nil {
		t.Fatal(err)
	}
	sensors, _ := db.CreateArray("Sensors<site:int>[sid=1,400,50]")
	sites, _ := db.CreateArray("Sites<code:int, elevation:int>[s=1,16,4]")
	for ts := int64(1); ts <= 20_000; ts++ {
		if err := readings.Insert([]int64{ts}, ts%400+1, float64(ts)/2); err != nil {
			t.Fatal(err)
		}
	}
	for sid := int64(1); sid <= 400; sid++ {
		if err := sensors.Insert([]int64{sid}, sid%16); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(1); s <= 16; s++ {
		if err := sites.Insert([]int64{s}, s%16, s*100); err != nil {
			t.Fatal(err)
		}
	}
}

// loadHashHot inserts two 8,000-cell arrays whose values fall on a key
// range a little wider than the array, with 1% of each side's cells on
// four hot keys.
func loadHashHot(t *testing.T, db *DB) {
	const cells = 8_000
	for s, lit := range []string{"A<v:int>[i=1,8000,250]", "B<w:int>[i=1,8000,250]"} {
		a, err := db.CreateArray(lit)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(40 + s)))
		for i := int64(1); i <= cells; i++ {
			key := 4 + rng.Int63n(cells*5/4)
			if i%100 == 0 {
				key = i / 100 % 4
			}
			if err := a.Insert([]int64{i}, key); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// loadServePair inserts two 1,000-cell arrays over 8 chunks of one
// dimension, each side filling every chunk from its start, to different
// depths.
func loadServePair(t *testing.T, db *DB) {
	for s, lit := range []string{"IA<v:int>[i=1,2000,250]", "IB<w:int>[i=1,2000,250]"} {
		a, err := db.CreateArray(lit)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(50 + s)))
		for c := int64(0); c < 8; c++ {
			for j := int64(0); j < 100+rng.Int63n(50); j++ {
				if err := a.Insert([]int64{c*250 + j + 1}, rng.Int63n(1000)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// loadMergeSkew inserts two 8,000-cell arrays over an 8×8 grid of 32×32
// chunks, each side dealing its cells to chunks in Zipf(1.0) proportions
// at distinct positions; the right side is placed by hash, so most units
// move.
func loadMergeSkew(t *testing.T, db *DB) {
	const grid, side, cells = 8, 32, 8_000
	var norm float64
	for c := 1; c <= grid*grid; c++ {
		norm += 1 / float64(c)
	}
	for s, lit := range []string{"MA<v:int>[i=1,256,32, j=1,256,32]", "MB<w:int>[i=1,256,32, j=1,256,32]"} {
		a, err := db.CreateArray(lit)
		if err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			a.DistributeByHash()
		}
		rng := rand.New(rand.NewSource(int64(60 + s)))
		for rank, ch := range rng.Perm(grid * grid) {
			n := min(int(cells/norm/float64(rank+1)), side*side)
			for _, p := range rng.Perm(side * side)[:n] {
				coords := []int64{int64(ch/grid*side + p/side + 1), int64(ch%grid*side + p%side + 1)}
				if err := a.Insert(coords, rng.Int63n(1000)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestQueryAllocCeilings holds whole queries, from AQL text to the output
// array, to an allocation ceiling: a query's matches go into output
// columns without an allocation per match. Each shape runs a fixed number
// of times after a warm-up at Parallelism 1, and allocations are counted
// with runtime.ReadMemStats across the runs.
func TestQueryAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 10
	for _, sh := range allocShapes {
		db, err := Open(sh.nodes)
		if err != nil {
			t.Fatal(err)
		}
		sh.load(t, db)
		opts := append([]QueryOption{WithParallelism(1)}, sh.opts...)
		var matches int64
		query := func() {
			res, err := db.Query(sh.query, opts...)
			if err != nil {
				t.Fatal(err)
			}
			matches = res.Matches
		}
		query() // seals the inputs and fills the pools
		// No collection empties a sync.Pool mid-count, so every run counts
		// the same steady state.
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: %d matches, %d allocs/query, ceiling %d", sh.name, matches, allocs, sh.ceiling)
		if allocs > sh.ceiling {
			t.Errorf("%s: %d allocs/query, want at most %d", sh.name, allocs, sh.ceiling)
		}
	}
}
