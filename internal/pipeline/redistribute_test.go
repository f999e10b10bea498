package pipeline_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

func TestRedistributeDimensionSwap(t *testing.T) {
	// Redimension the paper's B<v1,v2,i>[j] so attribute i becomes a
	// dimension, across a 3-node cluster.
	b := array.MustNew(array.MustParseSchema("B<v1:int, i:int>[j=1,60,10]"))
	for j := int64(1); j <= 60; j++ {
		b.MustPut([]int64{j}, []array.Value{array.IntValue(j * 10), array.IntValue(61 - j)})
	}
	b.SortAll()
	c := cluster.MustNew(3)
	d := c.Load(b, cluster.RoundRobin)

	target := array.MustParseSchema("B2<v1:int>[i=1,60,10, j=1,60,10]")
	out, rep, err := pipeline.Redistribute(c, d, target, pipeline.RedistributeOptions{})
	if err != nil {
		t.Fatalf("Redistribute: %v", err)
	}
	if out.Array.CellCount() != 60 {
		t.Errorf("cells = %d, want 60", out.Array.CellCount())
	}
	// Cell originally at j=1 (i=60) must now live at (60, 1).
	vals, ok := out.Array.Get([]int64{60, 1})
	if !ok || vals[0].AsInt() != 10 {
		t.Errorf("cell at (60,1) = %v, %v", vals, ok)
	}
	// Registered in the catalog under the new name.
	if _, err := c.Catalog.Lookup("B2"); err != nil {
		t.Errorf("catalog lookup: %v", err)
	}
	// Placement valid and chunks sorted.
	if err := out.Validate(c.K); err != nil {
		t.Fatalf("placement: %v", err)
	}
	for _, ch := range out.Array.Chunks {
		if !ch.IsSortedCOrder() {
			t.Error("redistributed chunk not sorted")
		}
	}
	if rep.TotalTime < rep.AlignTime {
		t.Error("total must include alignment")
	}
	// Conservation: simulated cells moved equals the report's count.
	var simMoved int64
	for _, s := range rep.Align.CellsSent {
		simMoved += s
	}
	if simMoved != rep.CellsMoved {
		t.Errorf("sim moved %d, report %d", simMoved, rep.CellsMoved)
	}
}

func TestRedistributeNoMoveWhenAligned(t *testing.T) {
	// Redimensioning to the identical schema with matching ownership moves
	// only cells whose destination chunk lands elsewhere; with one node,
	// nothing moves at all.
	a := buildArray("A<v:int>[i=1,100,10]", 21, 80, 50)
	c := cluster.MustNew(1)
	d := c.Load(a, cluster.RoundRobin)
	out, rep, err := pipeline.Redistribute(c, d, array.MustParseSchema("A2<v:int>[i=1,100,10]"), pipeline.RedistributeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsMoved != 0 || rep.AlignTime != 0 {
		t.Errorf("single node moved %d cells", rep.CellsMoved)
	}
	if out.Array.CellCount() != 80 {
		t.Errorf("cells = %d", out.Array.CellCount())
	}
}

func TestRedistributeErrors(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,10]", 22, 50, 50)
	c := cluster.MustNew(2)
	d := c.Load(a, cluster.RoundRobin)
	if _, _, err := pipeline.Redistribute(c, d, array.MustParseSchema("T<v:int>[zzz=1,10,5]"), pipeline.RedistributeOptions{}); err == nil {
		t.Error("unknown target dimension should fail")
	}
	bad := &array.Schema{Name: "X"}
	if _, _, err := pipeline.Redistribute(c, d, bad, pipeline.RedistributeOptions{}); err == nil {
		t.Error("invalid target schema should fail")
	}
}

func TestRedistributeMismatchedChunkInterval(t *testing.T) {
	// A target whose chunk interval was corrupted (zero / negative) must be
	// rejected by schema validation before any cell moves, not divide by
	// zero inside the chunk grid math.
	a := buildArray("A<v:int>[i=1,100,10]", 23, 40, 50)
	c := cluster.MustNew(2)
	d := c.Load(a, cluster.RoundRobin)
	for _, interval := range []int64{0, -5} {
		target := array.MustParseSchema("T<v:int>[i=1,100,10]")
		target.Dims[0].ChunkInterval = interval
		_, _, err := pipeline.Redistribute(c, d, target, pipeline.RedistributeOptions{})
		if err == nil {
			t.Errorf("chunk interval %d: want validation error, got nil", interval)
		} else if !strings.Contains(err.Error(), "chunk interval") {
			t.Errorf("chunk interval %d: error %q does not mention the chunk interval", interval, err)
		}
	}
}

func TestRedistributeEmptyDistribution(t *testing.T) {
	// Redistributing an empty array is a no-op, not an error: zero cells
	// moved, zero modeled time, and the (empty) result still lands in the
	// catalog under the target name.
	empty := array.MustNew(array.MustParseSchema("A<v:int>[i=1,100,10]"))
	c := cluster.MustNew(3)
	d := c.Load(empty, cluster.RoundRobin)
	out, rep, err := pipeline.Redistribute(c, d, array.MustParseSchema("A2<v:int>[i=1,100,20]"), pipeline.RedistributeOptions{})
	if err != nil {
		t.Fatalf("Redistribute(empty): %v", err)
	}
	if out.Array.CellCount() != 0 {
		t.Errorf("cells = %d, want 0", out.Array.CellCount())
	}
	if rep.CellsMoved != 0 || rep.AlignTime != 0 || rep.SortTime != 0 || rep.TotalTime != 0 {
		t.Errorf("empty redistribution reported work: %+v", rep)
	}
	if _, err := c.Catalog.Lookup("A2"); err != nil {
		t.Errorf("catalog lookup: %v", err)
	}
}

func TestRedistributeStrictBounds(t *testing.T) {
	// One cell's attribute value (500) falls outside the target dimension
	// v=[1,50]. Default mode clamps it onto the boundary; StrictBounds
	// turns it into an error naming the offending value and range.
	a := array.MustNew(array.MustParseSchema("A<v:int>[i=1,20,5]"))
	for i := int64(1); i <= 20; i++ {
		v := i
		if i == 7 {
			v = 500
		}
		a.MustPut([]int64{i}, []array.Value{array.IntValue(v)})
	}
	a.SortAll()
	target := array.MustParseSchema("T<i:int>[v=1,50,10]")

	c := cluster.MustNew(2)
	d := c.Load(a, cluster.RoundRobin)
	out, _, err := pipeline.Redistribute(c, d, target, pipeline.RedistributeOptions{})
	if err != nil {
		t.Fatalf("clamping mode: %v", err)
	}
	if vals, ok := out.Array.Get([]int64{50}); !ok || vals[0].AsInt() != 7 {
		t.Errorf("out-of-range cell not clamped onto boundary v=50: %v, %v", vals, ok)
	}

	c2 := cluster.MustNew(2)
	d2 := c2.Load(a.Clone(), cluster.RoundRobin)
	_, _, err = pipeline.Redistribute(c2, d2, target, pipeline.RedistributeOptions{StrictBounds: true})
	if !errors.Is(err, pipeline.ErrBounds) {
		t.Fatalf("StrictBounds: err = %v, want pipeline.ErrBounds for out-of-range value", err)
	}
	for _, frag := range []string{"StrictBounds", "500", "v=[1,50]"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("StrictBounds error %q missing %q", err, frag)
		}
	}

	// With every value in range, StrictBounds matches the default mode
	// cell for cell.
	inRange := buildArray("A<v:int>[i=1,40,8]", 24, 30, 49)
	c3 := cluster.MustNew(2)
	d3 := c3.Load(inRange, cluster.RoundRobin)
	strictOut, strictRep, err := pipeline.Redistribute(c3, d3, array.MustParseSchema("T2<i:int>[v=0,50,10]"), pipeline.RedistributeOptions{StrictBounds: true})
	if err != nil {
		t.Fatalf("StrictBounds with in-range data: %v", err)
	}
	c4 := cluster.MustNew(2)
	d4 := c4.Load(inRange.Clone(), cluster.RoundRobin)
	laxOut, laxRep, err := pipeline.Redistribute(c4, d4, array.MustParseSchema("T2<i:int>[v=0,50,10]"), pipeline.RedistributeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strictOut.Array.CellCount() != laxOut.Array.CellCount() || strictRep.CellsMoved != laxRep.CellsMoved {
		t.Errorf("StrictBounds changed behavior on in-range data: %d/%d cells, %d/%d moved",
			strictOut.Array.CellCount(), laxOut.Array.CellCount(), strictRep.CellsMoved, laxRep.CellsMoved)
	}
}

// TestRedistributeDeterministic: the report — including the float sum of
// per-node sort time, once accumulated in map order — is bit-identical
// run to run on one input.
func TestRedistributeDeterministic(t *testing.T) {
	// Many target chunks of uneven size per node, so a different
	// summation order would show in SortTime's last bits.
	src := array.MustNew(array.MustParseSchema("A<v:int>[i=1,4000,100]"))
	for i := int64(1); i <= 4000; i++ {
		src.MustPut([]int64{i}, []array.Value{array.IntValue(i * i % 997)})
	}
	src.SortAll()
	target := array.MustParseSchema("T<i:int>[v=0,996,3]")

	var want *pipeline.RedistributeReport
	for run := 0; run < 8; run++ {
		c := cluster.MustNew(4)
		d := c.Load(src.Clone(), cluster.RoundRobin)
		_, rep, err := pipeline.Redistribute(c, d, target, pipeline.RedistributeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.SortTime <= 0 || rep.CellsMoved == 0 {
			t.Fatalf("fixture does no work: %+v", rep)
		}
		if want == nil {
			want = rep
		} else if !reflect.DeepEqual(rep, want) {
			t.Fatalf("run %d: report differs from run 0:\n got sort=%b total=%b moved=%d\nwant sort=%b total=%b moved=%d",
				run, rep.SortTime, rep.TotalTime, rep.CellsMoved, want.SortTime, want.TotalTime, want.CellsMoved)
		}
	}
}
