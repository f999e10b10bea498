package pipeline_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/simnet"
)

// bruteMatches counts matches of an equi-join directly from the arrays.
func bruteMatches(l, r *array.Array, lKey, rKey func(coords []int64, attrs []array.Value) int64) int64 {
	var lv, rv []int64
	l.Scan(func(c []int64, a []array.Value) bool { lv = append(lv, lKey(c, a)); return true })
	r.Scan(func(c []int64, a []array.Value) bool { rv = append(rv, rKey(c, a)); return true })
	counts := make(map[int64]int64)
	for _, v := range rv {
		counts[v]++
	}
	var n int64
	for _, v := range lv {
		n += counts[v]
	}
	return n
}

func dimOf(c []int64, _ []array.Value) int64  { return c[0] }
func attrOf(_ []int64, a []array.Value) int64 { return a[0].AsInt() }

func TestDDMergeJoinCorrect(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 1, 120, 100)
	b := buildArray("B<w:int>[i=1,200,20]", 2, 130, 100)
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Logical.Algo != join.Merge {
		t.Errorf("D:D plan chose %v, want merge", rep.Logical.Algo)
	}
	want := bruteMatches(a, b, dimOf, dimOf)
	if rep.Matches != want {
		t.Errorf("Matches = %d, want %d", rep.Matches, want)
	}
	if got := rep.Output.CellCount(); got != want {
		t.Errorf("output cells = %d, want %d", got, want)
	}
}

func TestAAHashJoinCorrect(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 3, 200, 40)
	b := buildArray("B<w:int>[j=1,300,30]", 4, 180, 40)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,39,8]")
	c := newCluster(t, 4, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	algo := join.Hash
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{
		ForceAlgo:   &algo,
		Selectivity: 0.5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := bruteMatches(a, b, attrOf, attrOf)
	if rep.Matches != want {
		t.Errorf("Matches = %d, want %d", rep.Matches, want)
	}
}

func TestAllAlgorithmsSameMatches(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,29,6]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	want := bruteMatches(a, b, attrOf, attrOf)
	for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
		algo := algo
		c := newCluster(t, 3, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{ForceAlgo: &algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if rep.Matches != want {
			t.Errorf("%v: Matches = %d, want %d", algo, rep.Matches, want)
		}
	}
}

func TestAllPlannersSameOutput(t *testing.T) {
	a := buildArray("A<v:int>[i=1,400,40]", 7, 250, 60)
	b := buildArray("B<w:int>[i=1,400,40]", 8, 260, 60)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	planners := []physical.Planner{
		physical.BaselinePlanner{},
		physical.MinBandwidthPlanner{},
		physical.TabuPlanner{},
		physical.ILPPlanner{Budget: 200 * time.Millisecond},
		physical.CoarseILPPlanner{Budget: 200 * time.Millisecond, Bins: 8},
	}
	var ref []array.StoredCell
	for _, pl := range planners {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Planner: pl})
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		cells := rep.Output.Cells()
		if ref == nil {
			ref = cells
			continue
		}
		if !reflect.DeepEqual(cells, ref) {
			t.Errorf("%s produced different output cells", pl.Name())
		}
	}
}

// TestParallelMatchesSequential is the executor's determinism contract:
// for every join algorithm, every Parallelism setting produces the same
// output cells, join statistics, modeled phase times, and counters.
func TestParallelMatchesSequential(t *testing.T) {
	a := buildArray("A<v:int>[i=1,500,50]", 9, 300, 80)
	b := buildArray("B<w:int>[i=1,500,50]", 10, 320, 80)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	type outcome struct {
		Cells        []array.StoredCell
		Matches      int64
		CellsMoved   int64
		ClampedCells int64
		AlignTime    float64
		CompareTime  float64
		Stats        join.Stats
	}
	for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
		algo := algo
		run := func(parallelism int) outcome {
			c := newCluster(t, 4, a.Clone(), b.Clone())
			rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Parallelism: parallelism, ForceAlgo: &algo})
			if err != nil {
				t.Fatalf("%v parallelism=%d: %v", algo, parallelism, err)
			}
			return outcome{
				Cells:        rep.Output.Cells(),
				Matches:      rep.Matches,
				CellsMoved:   rep.CellsMoved,
				ClampedCells: rep.ClampedCells,
				AlignTime:    rep.AlignTime,
				CompareTime:  rep.CompareTime,
				Stats:        rep.JoinStats,
			}
		}
		ref := run(1)
		for _, p := range []int{0, 2, 3} {
			if got := run(p); !reflect.DeepEqual(got, ref) {
				t.Errorf("%v: parallelism=%d changed the result:\n got %+v\nwant %+v", algo, p, got, ref)
			}
		}
	}
}

// clampSetup builds a join whose destination dimension v=[0,19] covers only
// half the key domain 0..39, so every match pair with key >= 20 produces an
// out-of-range output cell.
func clampSetup(t *testing.T) (c *cluster.Cluster, out *array.Schema, pred join.Predicate, wantClamped int64) {
	t.Helper()
	a := buildArray("A<v:int>[i=1,300,30]", 15, 150, 40)
	b := buildArray("B<w:int>[j=1,300,30]", 16, 160, 40)
	out = array.MustParseSchema("T<i:int, j:int>[v=0,19,5]")
	pred = join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	counts := make(map[int64]int64)
	b.Scan(func(_ []int64, attrs []array.Value) bool {
		counts[attrs[0].AsInt()]++
		return true
	})
	a.Scan(func(_ []int64, attrs []array.Value) bool {
		if v := attrs[0].AsInt(); v > 19 {
			wantClamped += counts[v]
		}
		return true
	})
	if wantClamped == 0 {
		t.Fatal("setup produced no out-of-range matches")
	}
	return newCluster(t, 3, a, b), out, pred, wantClamped
}

func TestClampedCellsCounted(t *testing.T) {
	c, out, pred, want := clampSetup(t)
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ClampedCells != want {
		t.Errorf("ClampedCells = %d, want %d", rep.ClampedCells, want)
	}
}

func TestStrictBoundsRejectsClamp(t *testing.T) {
	c, out, pred, _ := clampSetup(t)
	_, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{Strict: true})
	if !errors.Is(err, pipeline.ErrBounds) {
		t.Errorf("StrictBounds on out-of-range output cells: err = %v, want pipeline.ErrBounds", err)
	}
}

func TestStrictBoundsAcceptsInRange(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 3, 200, 40)
	b := buildArray("B<w:int>[j=1,300,30]", 4, 180, 40)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,39,8]") // covers the domain
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 4, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{Strict: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ClampedCells != 0 {
		t.Errorf("ClampedCells = %d, want 0", rep.ClampedCells)
	}
}

func TestUnorderedDestinationRowDim(t *testing.T) {
	// INTO T<i:int, j:int>[] — Figure 2(b)'s unordered A:A output.
	a := buildArray("A<v:int>[i=1,50,10]", 11, 30, 10)
	b := buildArray("B<w:int>[j=1,50,10]", 12, 30, 10)
	out := &array.Schema{Name: "T", Attrs: []array.Attribute{
		{Name: "i", Type: array.TypeInt64}, {Name: "j", Type: array.TypeInt64}}}
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := bruteMatches(a, b, attrOf, attrOf)
	if rep.Matches != want || rep.Output.CellCount() != want {
		t.Errorf("matches %d / cells %d, want %d", rep.Matches, rep.Output.CellCount(), want)
	}
	// Output attrs must be the source coordinates.
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		if len(attrs) != 2 {
			t.Fatalf("output attrs = %v", attrs)
		}
		return false
	})
}

func TestPredicateNamedOutputDimension(t *testing.T) {
	// INTO C<i:int, j:int>[v=...]: the output dimension v is fed by the
	// join key A.v = B.w (the Figure 5 query shape).
	a := buildArray("A<v:int>[i=1,100,10]", 13, 60, 20)
	b := buildArray("B<w:int>[j=1,100,10]", 14, 60, 20)
	out := array.MustParseSchema("C<i:int, j:int>[v=0,19,5]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every output cell's v coordinate must equal the i-th source's value
	// at coordinate (attr i of the output names A's dimension).
	bad := 0
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		i := attrs[0].AsInt()
		vals, ok := a.Get([]int64{i})
		if !ok || vals[0].AsInt() != coords[0] {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Errorf("%d output cells with v coordinate not matching A.v", bad)
	}
	if rep.Matches == 0 {
		t.Error("expected some matches")
	}
}

func TestReportTimingsPopulated(t *testing.T) {
	a := buildArray("A<v:int>[i=1,400,40]", 15, 300, 50)
	b := buildArray("B<w:int>[i=1,400,40]", 16, 300, 50)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	c := newCluster(t, 4, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompareTime <= 0 {
		t.Error("CompareTime should be positive")
	}
	if rep.Total < rep.AlignTime+rep.CompareTime {
		t.Error("Total must include align and compare")
	}
	var moved int64
	for _, s := range rep.Align.CellsSent {
		moved += s
	}
	if moved != rep.CellsMoved {
		t.Errorf("simulated cells moved %d != model CellsMoved %d", moved, rep.CellsMoved)
	}
}

func TestSchedulingAblation(t *testing.T) {
	// FIFO scheduling must never beat greedy locks on the same plan.
	a := buildArray("A<v:int>[i=1,1000,50]", 17, 800, 100)
	b := buildArray("B<w:int>[i=1,1000,50]", 18, 800, 100)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	run := func(s simnet.Scheduling) float64 {
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Scheduling: s,
			Planner:    physical.BaselinePlanner{}, // forces movement
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.AlignTime
	}
	greedy := run(simnet.GreedyLocks)
	fifo := run(simnet.FIFONoSkip)
	if greedy > fifo+1e-9 {
		t.Errorf("greedy align %v worse than FIFO %v", greedy, fifo)
	}
}

func TestRunUnknownArray(t *testing.T) {
	c := cluster.MustNew(2)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	if _, err := pipeline.Run(c, "nope", "nada", pred, nil, pipeline.Options{}); err == nil {
		t.Error("unknown arrays should error")
	}
}

func TestForceAlgoUnavailable(t *testing.T) {
	// Merge join cannot run when the predicate has no rangeable dims
	// (string keys) — forcing it must error.
	s1 := array.MustParseSchema("A<v:string>[i=1,10,5]")
	s2 := array.MustParseSchema("B<w:string>[j=1,10,5]")
	a, b := array.MustNew(s1), array.MustNew(s2)
	a.MustPut([]int64{1}, []array.Value{array.StringValue("x")})
	b.MustPut([]int64{1}, []array.Value{array.StringValue("x")})
	c := newCluster(t, 2, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	algo := join.Merge
	out := &array.Schema{Name: "T", Attrs: []array.Attribute{{Name: "i", Type: array.TypeInt64}}}
	if _, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{ForceAlgo: &algo}); err == nil {
		t.Error("forcing merge with string keys should error")
	}
	// Hash works.
	algoH := join.Hash
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{ForceAlgo: &algoH})
	if err != nil {
		t.Fatalf("hash on strings: %v", err)
	}
	if rep.Matches != 1 {
		t.Errorf("Matches = %d, want 1", rep.Matches)
	}
}

func TestStringJoinCorrectness(t *testing.T) {
	s1 := array.MustParseSchema("A<v:string>[i=1,20,5]")
	s2 := array.MustParseSchema("B<w:string>[j=1,20,5]")
	a, b := array.MustNew(s1), array.MustNew(s2)
	words := []string{"ship", "port", "sea", "dock"}
	for i := int64(1); i <= 20; i++ {
		a.MustPut([]int64{i}, []array.Value{array.StringValue(words[i%4])})
		b.MustPut([]int64{i}, []array.Value{array.StringValue(words[i%3])})
	}
	c := newCluster(t, 3, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := &array.Schema{Name: "T", Attrs: []array.Attribute{{Name: "i", Type: array.TypeInt64}}}
	rep, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force on strings.
	var want int64
	a.Scan(func(_ []int64, aa []array.Value) bool {
		b.Scan(func(_ []int64, bb []array.Value) bool {
			if aa[0].Str == bb[0].Str {
				want++
			}
			return true
		})
		return true
	})
	if rep.Matches != want {
		t.Errorf("Matches = %d, want %d", rep.Matches, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	// One or both sides empty: the join plans and runs, producing nothing.
	a := array.MustNew(array.MustParseSchema("A<v:int>[i=1,100,10]"))
	b := buildArray("B<w:int>[i=1,100,10]", 41, 50, 10)
	c := newCluster(t, 3, a, b)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{})
	if err != nil {
		t.Fatalf("empty left: %v", err)
	}
	if rep.Matches != 0 || rep.Output.CellCount() != 0 {
		t.Errorf("empty join produced %d matches", rep.Matches)
	}
	// Both empty.
	c2 := newCluster(t, 2,
		array.MustNew(array.MustParseSchema("A<v:int>[i=1,100,10]")),
		array.MustNew(array.MustParseSchema("B<w:int>[i=1,100,10]")))
	rep2, err := pipeline.Run(c2, "A", "B", pred, nil, pipeline.Options{})
	if err != nil {
		t.Fatalf("both empty: %v", err)
	}
	if rep2.Matches != 0 {
		t.Errorf("both-empty join produced matches")
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	// The ADM stores what it is given: duplicate positions join as
	// independent cells (cross product per coordinate).
	a := array.MustNew(array.MustParseSchema("A<v:int>[i=1,10,5]"))
	b := array.MustNew(array.MustParseSchema("B<w:int>[i=1,10,5]"))
	a.MustPut([]int64{3}, []array.Value{array.IntValue(1)})
	a.MustPut([]int64{3}, []array.Value{array.IntValue(2)})
	b.MustPut([]int64{3}, []array.Value{array.IntValue(10)})
	b.MustPut([]int64{3}, []array.Value{array.IntValue(20)})
	b.MustPut([]int64{3}, []array.Value{array.IntValue(30)})
	a.SortAll()
	b.SortAll()
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
		algo := algo
		c := newCluster(t, 2, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{ForceAlgo: &algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if rep.Matches != 6 {
			t.Errorf("%v: Matches = %d, want 6 (2x3 cross product)", algo, rep.Matches)
		}
	}
}
