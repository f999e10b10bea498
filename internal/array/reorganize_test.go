package array

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// redimension is Table 1's redim: the reorganization walk plus the chunk
// sort.
func redimension(a *Array, target *Schema) (*Array, error) {
	out, err := Reorganize(a, target, false, nil)
	if err == nil {
		out.SortAll()
	}
	return out, err
}

func TestRedimensionPaperExample(t *testing.T) {
	// The Section 2.3.1 example: B<v1,v2,i>[j] redimensioned so attribute
	// i becomes a dimension, making it merge-compatible with A.
	b := MustNew(MustParseSchema("B<v1:int, v2:float, i:int>[j=1,6,3]"))
	for j := int64(1); j <= 6; j++ {
		b.MustPut([]int64{j}, []Value{IntValue(j * 10), FloatValue(float64(j)), IntValue(7 - j)})
	}
	out, err := redimension(b, MustParseSchema("<v1:int, v2:float>[i=1,6,3, j=1,6,3]"))
	if err != nil {
		t.Fatal(err)
	}
	if out.CellCount() != 6 {
		t.Fatalf("redim produced %d cells", out.CellCount())
	}
	if got := len(out.Schema.Dims); got != 2 {
		t.Fatalf("redim output has %d dims", got)
	}
	// Cell originally at j=1 had attribute i=6: must now live at (6,1).
	vals, ok := out.Get([]int64{6, 1})
	if !ok || vals[0].AsInt() != 10 {
		t.Errorf("cell at (6,1) = %v, %v", vals, ok)
	}
	// Output chunks must be sorted (redim sorts; Table 1).
	for _, ch := range out.Chunks {
		if !ch.IsSortedCOrder() {
			t.Error("redim output chunk not sorted")
		}
	}
}

func TestRechunkDoesNotSort(t *testing.T) {
	a := MustNew(MustParseSchema("A<v:int>[i=1,100,10]"))
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100; n++ {
		a.MustPut([]int64{rng.Int63n(100) + 1}, []Value{IntValue(rng.Int63n(100))})
	}
	// Rechunk to a coarser grid keyed on the attribute.
	out, err := Reorganize(a, MustParseSchema("<i:int>[v=0,99,25]"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.CellCount() != 100 {
		t.Errorf("rechunk lost cells: %d", out.CellCount())
	}
	sorted := out.Clone()
	sorted.SortAll()
	for _, ch := range sorted.Chunks {
		if !ch.IsSortedCOrder() {
			t.Error("SortAll left an unsorted chunk")
		}
	}
}

func TestRedimRoundTripProperty(t *testing.T) {
	// Redimensioning dim->attr->dim preserves the cell set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNew(MustParseSchema("A<v:int>[i=1,50,10]"))
		seen := map[int64]bool{}
		for n := 0; n < 20; n++ {
			c := rng.Int63n(50) + 1
			if seen[c] {
				continue
			}
			seen[c] = true
			a.MustPut([]int64{c}, []Value{IntValue(c % 7)})
		}
		// i becomes an attribute of a v-dimensioned array, then back.
		mid, err := redimension(a, MustParseSchema("<i:int>[v=0,6,2]"))
		if err != nil {
			return false
		}
		back, err := redimension(mid, MustParseSchema("<v:int>[i=1,50,10]"))
		if err != nil {
			return false
		}
		if back.CellCount() != a.CellCount() {
			return false
		}
		ok := true
		a.Scan(func(coords []int64, attrs []Value) bool {
			got, found := back.Get(coords)
			if !found || got[0].AsInt() != attrs[0].AsInt() {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// tenCells is A<v:int, w:int>[i=1,10,5] with v = 3i and w = i.
func tenCells() *Array {
	a := MustNew(MustParseSchema("A<v:int, w:int>[i=1,10,5]"))
	for i := int64(1); i <= 10; i++ {
		a.MustPut([]int64{i}, []Value{IntValue(3 * i), IntValue(i)})
	}
	return a
}

func TestReorganizeErrors(t *testing.T) {
	cases := []struct {
		name   string
		target *Schema
		strict bool
		want   string
	}{
		{"unknown dimension source", MustParseSchema("<v:int>[k=1,10,5]"), false, `"k"`},
		{"unknown attribute source", MustParseSchema("<nope:int>[i=1,10,5]"), false, `"nope"`},
		{"invalid target", &Schema{Dims: []Dimension{{Name: "v", Start: 1, End: 30}}}, false, "chunk interval"},
		{"strict out of bounds", MustParseSchema("<w:int>[v=1,20,5]"), true, "cell [7]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Reorganize(tenCells(), tc.target, tc.strict, nil)
			if err == nil {
				t.Fatalf("Reorganize succeeded with %d cells, want an error", out.CellCount())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to mention %s", err, tc.want)
			}
			if tc.strict && !errors.Is(err, ErrBounds) {
				t.Errorf("strict rejection %v does not wrap ErrBounds", err)
			}
		})
	}
}

func TestReorganizeClampsWhenNotStrict(t *testing.T) {
	// v = 3i runs to 30; the target's v stops at 20, so i = 7..10 (v =
	// 21..30) land on the boundary and nothing is dropped.
	out, err := Reorganize(tenCells(), MustParseSchema("<w:int>[v=1,20,5]"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.CellCount() != 10 {
		t.Fatalf("clamped reorganize kept %d cells, want 10", out.CellCount())
	}
	atEdge := 0
	out.Scan(func(coords []int64, attrs []Value) bool {
		switch w := attrs[0].AsInt(); {
		case w >= 7:
			atEdge++
			if coords[0] != 20 {
				t.Errorf("cell w=%d at v=%d, want clamped to 20", w, coords[0])
			}
		case coords[0] != 3*w:
			t.Errorf("cell w=%d at v=%d, want %d", w, coords[0], 3*w)
		}
		return true
	})
	if atEdge != 4 {
		t.Errorf("%d cells on the boundary, want 4", atEdge)
	}
}

func TestReorganizeEachSeesEveryCell(t *testing.T) {
	a := MustNew(MustParseSchema("A<v:int>[i=1,100,10]"))
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 200; n++ {
		a.MustPut([]int64{rng.Int63n(100) + 1}, []Value{IntValue(rng.Int63n(100))})
	}
	target := MustParseSchema("<i:int>[v=0,99,25]")
	perChunk := map[ChunkKey]int{}
	var order []ChunkKey
	out, err := Reorganize(a, target, false, func(src ChunkKey, dst []int64) {
		if len(order) == 0 || order[len(order)-1] != src {
			order = append(order, src)
		}
		perChunk[src]++
		if _, ok := a.Chunks[src]; !ok {
			t.Errorf("callback saw source chunk %v that a does not hold", src)
		}
		if len(dst) != 1 || !target.Dims[0].Contains(dst[0]) {
			t.Errorf("callback saw target coordinates %v outside %v", dst, target.Dims[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []ChunkKey
	for _, key := range a.SortedKeys() {
		if n := a.Chunks[key].Len(); n > 0 {
			want = append(want, key)
			if perChunk[key] != n {
				t.Errorf("chunk %v: callback saw %d cells, chunk holds %d", key, perChunk[key], n)
			}
		}
	}
	if len(order) != len(want) {
		t.Fatalf("callback visited %d source chunks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("visit %d: chunk %v, want %v (SortedKeys order)", i, order[i], want[i])
		}
	}
	if out.CellCount() != a.CellCount() {
		t.Errorf("reorganized %d cells, want %d", out.CellCount(), a.CellCount())
	}
}

func TestReorganizeNamesOutput(t *testing.T) {
	anon := MustParseSchema("<v:int>[i=1,10,5]")
	out, err := Reorganize(tenCells(), anon, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Name != "A" {
		t.Errorf("unnamed target: output named %q, want the source's name A", out.Schema.Name)
	}
	if anon.Name != "" {
		t.Errorf("Reorganize renamed the caller's target schema to %q", anon.Name)
	}
	out, err = Reorganize(tenCells(), MustParseSchema("T<v:int>[i=1,10,5]"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Name != "T" {
		t.Errorf("named target: output named %q, want T", out.Schema.Name)
	}
}
