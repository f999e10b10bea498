package array

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
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

func TestReorganizeFlowsCountEveryPair(t *testing.T) {
	a := MustNew(MustParseSchema("A<v:int>[i=1,100,10]"))
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 200; n++ {
		a.MustPut([]int64{rng.Int63n(100) + 1}, []Value{IntValue(rng.Int63n(100))})
	}
	target := MustParseSchema("<i:int>[v=0,99,25]")
	type pair struct{ from, to ChunkKey }
	flows := map[pair]int{}
	var order []ChunkKey
	out, err := Reorganize(a, target, false, func(from, to ChunkKey, cells int) {
		if len(order) == 0 || order[len(order)-1] != from {
			order = append(order, from)
		}
		if _, dup := flows[pair{from, to}]; dup {
			t.Errorf("pair %v -> %v reported twice", from, to)
		}
		if cells <= 0 {
			t.Errorf("pair %v -> %v reported with %d cells", from, to, cells)
		}
		flows[pair{from, to}] = cells
	})
	if err != nil {
		t.Fatal(err)
	}
	sent, received := map[ChunkKey]int{}, map[ChunkKey]int{}
	for p, n := range flows {
		sent[p.from] += n
		received[p.to] += n
	}
	for key, ch := range a.Chunks {
		if sent[key] != ch.Len() {
			t.Errorf("source chunk %v: pairs count %d cells, chunk holds %d", key, sent[key], ch.Len())
		}
	}
	for key, ch := range out.Chunks {
		if received[key] != ch.Len() {
			t.Errorf("target chunk %v: pairs count %d cells, chunk holds %d", key, received[key], ch.Len())
		}
	}
	if len(received) != len(out.Chunks) {
		t.Errorf("pairs reach %d target chunks, output has %d", len(received), len(out.Chunks))
	}
	if want := a.SortedKeys(); !slices.Equal(order, want) {
		t.Errorf("pairs visit source chunks %v, want SortedKeys order %v", order, want)
	}
}

// reorganizeByCell is the per-cell walk Reorganize replaced, kept as its
// oracle: every cell is boxed into Values, clamped alone and Put, and the
// cells each source chunk sends to each target chunk are counted one at a
// time.
func reorganizeByCell(src *Array, target *Schema, strict bool) (*Array, map[[2]ChunkKey]int, error) {
	t := target.Clone()
	if t.Name == "" {
		t.Name = src.Schema.Name
	}
	out, err := New(t)
	if err != nil {
		return nil, nil, err
	}
	dimSrc := make([]sourceField, len(t.Dims))
	for i, d := range t.Dims {
		if dimSrc[i], err = src.Schema.sourceOf(d.Name); err != nil {
			return nil, nil, err
		}
	}
	attrSrc := make([]sourceField, len(t.Attrs))
	for i, at := range t.Attrs {
		if attrSrc[i], err = src.Schema.sourceOf(at.Name); err != nil {
			return nil, nil, err
		}
	}
	flows := map[[2]ChunkKey]int{}
	nc, na := make([]int64, len(dimSrc)), make([]Value, len(attrSrc))
	for _, key := range src.SortedKeys() {
		ch := src.Chunks[key]
		field := func(f sourceField, row int) Value {
			if f.isDim {
				return IntValue(ch.Coords[f.idx][row])
			}
			return ch.Cols[f.idx].Value(row)
		}
		for row := 0; row < ch.Len(); row++ {
			for i, f := range dimSrc {
				if nc[i], err = t.Dims[i].Clamp(field(f, row).AsInt(), strict); err != nil {
					return nil, nil, fmt.Errorf("array: reorganized cell %v: %w", ch.CoordsAt(row, nil), err)
				}
			}
			for i, f := range attrSrc {
				na[i] = field(f, row)
			}
			if err := out.Put(nc, na); err != nil {
				return nil, nil, err
			}
			flows[[2]ChunkKey{key, ChunkKeyOf(t, nc)}]++
		}
	}
	return out, flows, nil
}

// mixedSource is S<n:int, f:float, s:string>[i=1,300,32, j=1,40,8]:
// floats with fractions and out of every target's range, strings that
// parse as ints and some that do not, and one empty stored chunk.
func mixedSource() *Array {
	a := MustNew(MustParseSchema("S<n:int, f:float, s:string>[i=1,300,32, j=1,40,8]"))
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 2000; c++ {
		s := strconv.Itoa(rng.Intn(130) - 15)
		if rng.Intn(10) == 0 {
			s = "x" + s
		}
		a.MustPut([]int64{rng.Int63n(300) + 1, rng.Int63n(40) + 1},
			[]Value{IntValue(rng.Int63n(100)), FloatValue(rng.Float64()*140 - 20), StringValue(s)})
	}
	empty := ChunkKeyOf(a.Schema, []int64{300, 40})
	delete(a.Chunks, empty)
	a.Chunk(empty)
	return a
}

// sameChunks reports how got differs from want chunk by chunk: keys,
// row order, values bit for bit, and Sorted.
func sameChunks(got, want *Array) error {
	if g, w := got.SortedKeys(), want.SortedKeys(); !slices.Equal(g, w) {
		return fmt.Errorf("chunk keys %v, want %v", g, w)
	}
	for key, w := range want.Chunks {
		g := got.Chunks[key]
		if g.Key != w.Key || g.NDims != w.NDims || g.Sorted != w.Sorted || g.Len() != w.Len() {
			return fmt.Errorf("chunk %v: key %v, %d dims, sorted %v, %d rows; want %v, %d, %v, %d",
				key, g.Key, g.NDims, g.Sorted, g.Len(), w.Key, w.NDims, w.Sorted, w.Len())
		}
		for d := range w.Coords {
			if !slices.Equal(g.Coords[d], w.Coords[d]) {
				return fmt.Errorf("chunk %v: dimension %d is %v, want %v", key, d, g.Coords[d], w.Coords[d])
			}
		}
		for i := range w.Cols {
			gc, wc := &g.Cols[i], &w.Cols[i]
			same := gc.Type == wc.Type && gc.Len() == wc.Len()
			for row := 0; same && row < wc.Len(); row++ {
				gv, wv := gc.Value(row), wc.Value(row)
				same = gv.Kind == wv.Kind && gv.Int == wv.Int && gv.Str == wv.Str &&
					math.Float64bits(gv.F) == math.Float64bits(wv.F)
			}
			if !same {
				return fmt.Errorf("chunk %v: attribute %d differs", key, i)
			}
		}
	}
	return nil
}

func TestReorganizeMatchesPerCellOracle(t *testing.T) {
	cases := []struct {
		name   string
		src    *Array
		target string
		strict bool
	}{
		{"int attribute to dimension, clamped", tenCells(), "<w:int>[v=1,20,5]", false},
		{"float attribute to dimension, clamped", mixedSource(), "<n:int, s:string>[f=0,99,10, i=1,300,50]", false},
		{"string attribute to dimension, converting attributes", mixedSource(), "<f:int, n:float, i:string>[s=0,99,25, j=1,40,8]", false},
		{"dimension to float attribute", mixedSource(), "<j:float>[n=0,99,7, i=1,300,100]", false},
		{"strict, in range", mixedSource(), "<j:float, f:float>[n=0,99,7, i=1,300,100]", true},
		{"strict, out of range", mixedSource(), "<n:int>[f=0,99,10, i=1,300,50]", true},
		{"strict, second dimension out of range", mixedSource(), "<f:float>[n=0,99,10, i=1,250,50]", true},
		{"no cells", MustNew(MustParseSchema("E<v:int>[i=1,10,5]")), "<i:int>[v=0,9,5]", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := MustParseSchema(tc.target)
			want, wantFlows, wantErr := reorganizeByCell(tc.src, target, tc.strict)
			gotFlows := map[[2]ChunkKey]int{}
			got, gotErr := Reorganize(tc.src, target, tc.strict, func(from, to ChunkKey, cells int) {
				gotFlows[[2]ChunkKey{from, to}] += cells
			})
			if wantErr != nil || gotErr != nil {
				if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("error %v, oracle's %v", gotErr, wantErr)
				}
				if !errors.Is(gotErr, ErrBounds) {
					t.Errorf("strict rejection %v does not wrap ErrBounds", gotErr)
				}
				return
			}
			if err := sameChunks(got, want); err != nil {
				t.Fatalf("before SortAll: %v", err)
			}
			if !maps.Equal(gotFlows, wantFlows) {
				t.Errorf("flows %v, oracle's %v", gotFlows, wantFlows)
			}
			got.SortAll()
			want.SortAll()
			if err := sameChunks(got, want); err != nil {
				t.Fatalf("after SortAll: %v", err)
			}
		})
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
