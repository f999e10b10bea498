package array

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func figure1Schema(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseSchema("A<v1:int, v2:float>[i=1,6,3, j=1,6,3]")
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	return s
}

func TestParseSchemaFigure1(t *testing.T) {
	s := figure1Schema(t)
	if s.Name != "A" {
		t.Errorf("name = %q, want A", s.Name)
	}
	if len(s.Dims) != 2 || len(s.Attrs) != 2 {
		t.Fatalf("got %d dims, %d attrs; want 2, 2", len(s.Dims), len(s.Attrs))
	}
	if s.Dims[0].Name != "i" || s.Dims[0].Start != 1 || s.Dims[0].End != 6 || s.Dims[0].ChunkInterval != 3 {
		t.Errorf("dim i = %+v", s.Dims[0])
	}
	if s.Attrs[0] != (Attribute{Name: "v1", Type: TypeInt64}) {
		t.Errorf("attr v1 = %+v", s.Attrs[0])
	}
	if s.Attrs[1] != (Attribute{Name: "v2", Type: TypeFloat64}) {
		t.Errorf("attr v2 = %+v", s.Attrs[1])
	}
	if got := s.TotalChunks(); got != 4 {
		t.Errorf("TotalChunks = %d, want 4", got)
	}
}

func TestParseSchemaRoundTrip(t *testing.T) {
	cases := []string{
		"A<v1:int, v2:float>[i=1,6,3, j=1,6,3]",
		"B<w:int>[j=1,128000000,4000000]",
		"C<i:int, j:int>[v=1,128000000,4000000]",
		"T<s:string>[x=1,10,5]",
	}
	for _, src := range cases {
		s, err := ParseSchema(src)
		if err != nil {
			t.Fatalf("ParseSchema(%q): %v", src, err)
		}
		again, err := ParseSchema(s.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", s.String(), err)
		}
		if s.String() != again.String() {
			t.Errorf("round trip: %q != %q", s.String(), again.String())
		}
	}
}

func TestParseSchemaSuffixes(t *testing.T) {
	s, err := ParseSchema("A<v:int>[i=1,128M,4M]")
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	if s.Dims[0].End != 128000000 || s.Dims[0].ChunkInterval != 4000000 {
		t.Errorf("suffix parsing: dim = %+v", s.Dims[0])
	}
	if got := s.Dims[0].ChunkCount(); got != 32 {
		t.Errorf("ChunkCount = %d, want 32", got)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := []string{
		"A<v:int>[i=1,0,3]",      // end < start
		"A<v:int>[i=1,6,0]",      // zero interval
		"A<v:frob>[i=1,6,3]",     // unknown type
		"A<v:int>[i=1,6,3] junk", // trailing garbage
		"A<v:int>[=1,6,3]",       // missing dim name
	}
	for _, src := range bad {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", src)
		}
	}
}

func TestSchemaValidateDuplicates(t *testing.T) {
	s := &Schema{
		Name:  "D",
		Dims:  []Dimension{{Name: "i", Start: 1, End: 4, ChunkInterval: 2}},
		Attrs: []Attribute{{Name: "i", Type: TypeInt64}},
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate allowed duplicate name across dims and attrs")
	}
}

func TestSchemaNoDims(t *testing.T) {
	s := &Schema{Name: "E", Attrs: []Attribute{{Name: "v", Type: TypeInt64}}}
	if err := s.Validate(); err == nil {
		t.Error("Validate allowed schema with no dimensions")
	}
}

// TestChunkKeyRoundTrip: a key decodes to the chunk indices it was built
// from, and its text form is the indices in decimal, comma-separated,
// parsing back to the same key.
func TestChunkKeyRoundTrip(t *testing.T) {
	s := MustParseSchema("R<v:int>[i=-40000,40000,7, j=0,65535,1, k=5,9,2]")
	f := func(a, b, c uint16) bool {
		idx := []int64{int64(a) % s.Dims[0].ChunkCount(), int64(b) % s.Dims[1].ChunkCount(), int64(c) % s.Dims[2].ChunkCount()}
		coords := make([]int64, 3)
		for d, dim := range s.Dims {
			coords[d] = dim.Start + idx[d]*dim.ChunkInterval
		}
		key := ChunkKeyOf(s, coords)
		text := string(s.AppendKey(nil, key))
		back, err := s.ParseKey(text)
		return reflect.DeepEqual(s.KeyIndices(key, nil), idx) &&
			text == fmt.Sprintf("%d,%d,%d", idx[0], idx[1], idx[2]) && err == nil && back == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkKeyOfFigure1(t *testing.T) {
	s := figure1Schema(t)
	cases := []struct {
		coords []int64
		want   ChunkKey
		text   string
	}{
		{[]int64{1, 1}, 0, "0,0"},
		{[]int64{3, 3}, 0, "0,0"},
		{[]int64{4, 1}, 2, "1,0"},
		{[]int64{1, 4}, 1, "0,1"},
		{[]int64{6, 6}, 3, "1,1"},
	}
	for _, c := range cases {
		got := ChunkKeyOf(s, c.coords)
		if got != c.want || string(s.AppendKey(nil, got)) != c.text {
			t.Errorf("ChunkKeyOf(%v) = %d (%s), want %d (%s)", c.coords, got, s.AppendKey(nil, got), c.want, c.text)
		}
	}
}

func TestCompareCoordsIsCOrder(t *testing.T) {
	// C-order: iterate innermost (last) dimension fastest.
	seq := [][]int64{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 3}}
	for k := 1; k < len(seq); k++ {
		if CompareCoords(seq[k-1], seq[k]) >= 0 {
			t.Errorf("CompareCoords(%v, %v) >= 0", seq[k-1], seq[k])
		}
	}
	if CompareCoords([]int64{2, 2}, []int64{2, 2}) != 0 {
		t.Error("equal coords should compare 0")
	}
}

func TestChunkSortFigure1Layout(t *testing.T) {
	// Figure 1: the first v1 chunk serializes as (3,1,1,7,4,0,0) in C-order.
	s := figure1Schema(t)
	a := MustNew(s)
	// Occupied cells of the first chunk, inserted out of order.
	puts := []struct {
		i, j int64
		v1   int64
		v2   float64
	}{
		{3, 3, 0, 7.5},
		{1, 2, 5, 3.0},
		{2, 2, 7, 1.3},
		{3, 1, 1, 0.9},
		{1, 3, 1, 4.7},
		{2, 1, 1, 0.2},
		{3, 2, 0, 0.4},
	}
	for _, p := range puts {
		a.MustPut([]int64{p.i, p.j}, []Value{IntValue(p.v1), FloatValue(p.v2)})
	}
	ch := a.Chunks[0]
	if ch == nil {
		t.Fatal("chunk 0,0 missing")
	}
	ch.Sort()
	if !ch.IsSortedCOrder() {
		t.Fatal("chunk not in C-order after Sort")
	}
	want := []int64{5, 1, 1, 7, 1, 0, 0}
	// Expected serialization given our occupied positions sorted C-order:
	// (1,2)=5 (1,3)=1 (2,1)=1 (2,2)=7 (3,1)=1 (3,2)=0 (3,3)=0
	if !reflect.DeepEqual(ch.Cols[0].Ints, want) {
		t.Errorf("v1 column = %v, want %v", ch.Cols[0].Ints, want)
	}
}

func TestChunkSortPropertyCOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ch := NewChunk(0, 2, []ScalarType{TypeInt64})
		count := int(n%64) + 2
		for k := 0; k < count; k++ {
			ch.AppendCell([]int64{rng.Int63n(10), rng.Int63n(10)}, []Value{IntValue(int64(k))})
		}
		ch.Sort()
		return ch.IsSortedCOrder() && ch.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChunkSortKeepsCellsIntact(t *testing.T) {
	// Sorting must permute whole cells: attribute values travel with their
	// coordinates.
	rng := rand.New(rand.NewSource(7))
	ch := NewChunk(0, 1, []ScalarType{TypeInt64, TypeFloat64, TypeString})
	type rec struct {
		c int64
		v int64
	}
	var recs []rec
	for k := 0; k < 100; k++ {
		c := rng.Int63n(1000)
		recs = append(recs, rec{c, int64(k)})
		ch.AppendCell([]int64{c}, []Value{IntValue(int64(k)), FloatValue(float64(k) / 2), StringValue("s")})
	}
	ch.Sort()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].c < recs[j].c })
	for row := range recs {
		coords, attrs := ch.Cell(row)
		if coords[0] != recs[row].c || attrs[0].Int != recs[row].v {
			t.Fatalf("row %d: got (%d,%d), want (%d,%d)", row, coords[0], attrs[0].Int, recs[row].c, recs[row].v)
		}
		if attrs[1].F != float64(recs[row].v)/2 {
			t.Fatalf("row %d: float column desynchronized", row)
		}
	}
}

func TestArrayPutGet(t *testing.T) {
	s := figure1Schema(t)
	a := MustNew(s)
	a.MustPut([]int64{2, 5}, []Value{IntValue(9), FloatValue(2.7)})
	got, ok := a.Get([]int64{2, 5})
	if !ok {
		t.Fatal("Get reported empty cell")
	}
	if got[0].Int != 9 || got[1].F != 2.7 {
		t.Errorf("Get = %v", got)
	}
	if _, ok := a.Get([]int64{1, 1}); ok {
		t.Error("Get found a cell at an empty position")
	}
}

func TestArrayPutOutOfRange(t *testing.T) {
	a := MustNew(figure1Schema(t))
	if err := a.Put([]int64{0, 1}, []Value{IntValue(1), FloatValue(1)}); err == nil {
		t.Error("Put accepted coordinate below range")
	}
	if err := a.Put([]int64{7, 1}, []Value{IntValue(1), FloatValue(1)}); err == nil {
		t.Error("Put accepted coordinate above range")
	}
	if err := a.Put([]int64{1}, []Value{IntValue(1)}); err == nil {
		t.Error("Put accepted wrong dimensionality")
	}
}

func TestArraySparseStorage(t *testing.T) {
	// Figure 1's array stores only 2 of 4 chunks.
	a := MustNew(figure1Schema(t))
	a.MustPut([]int64{1, 2}, []Value{IntValue(5), FloatValue(3.0)})
	a.MustPut([]int64{6, 6}, []Value{IntValue(5), FloatValue(8.7)})
	if a.ChunkCount() != 2 {
		t.Errorf("ChunkCount = %d, want 2", a.ChunkCount())
	}
	if a.CellCount() != 2 {
		t.Errorf("CellCount = %d, want 2", a.CellCount())
	}
}

func TestArrayScanOrderDeterministic(t *testing.T) {
	a := MustNew(figure1Schema(t))
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 30; k++ {
		a.MustPut([]int64{rng.Int63n(6) + 1, rng.Int63n(6) + 1},
			[]Value{IntValue(int64(k)), FloatValue(0)})
	}
	a.SortAll()
	var first, second [][]int64
	a.Scan(func(coords []int64, _ []Value) bool {
		first = append(first, append([]int64(nil), coords...))
		return true
	})
	a.Scan(func(coords []int64, _ []Value) bool {
		second = append(second, append([]int64(nil), coords...))
		return true
	})
	if !reflect.DeepEqual(first, second) {
		t.Error("Scan order not deterministic")
	}
	if len(first) != 30 {
		t.Errorf("scanned %d cells, want 30", len(first))
	}
}

func TestArrayCloneIndependent(t *testing.T) {
	a := MustNew(figure1Schema(t))
	a.MustPut([]int64{1, 1}, []Value{IntValue(1), FloatValue(1)})
	b := a.Clone()
	b.MustPut([]int64{2, 2}, []Value{IntValue(2), FloatValue(2)})
	if a.CellCount() != 1 || b.CellCount() != 2 {
		t.Errorf("clone not independent: a=%d b=%d", a.CellCount(), b.CellCount())
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !IntValue(3).Equal(FloatValue(3.0)) {
		t.Error("int 3 should equal float 3.0")
	}
	if IntValue(3).Equal(FloatValue(3.5)) {
		t.Error("int 3 should not equal float 3.5")
	}
	if IntValue(3).Equal(StringValue("3")) {
		t.Error("numeric/string comparison should be unequal")
	}
	if !StringValue("x").Equal(StringValue("x")) {
		t.Error("equal strings should compare equal")
	}
}

func TestValueHashKeyConsistentWithEqual(t *testing.T) {
	f := func(n int32) bool {
		v := int64(n)
		return IntValue(v).HashKey() == FloatValue(float64(v)).HashKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{IntValue(-5), FloatValue(-1.5), IntValue(0), FloatValue(2.5), IntValue(3), StringValue("a"), StringValue("b")}
	for i := range vals {
		for j := range vals {
			got := vals[i].Compare(vals[j])
			rev := vals[j].Compare(vals[i])
			if got != -rev {
				t.Errorf("Compare(%v,%v)=%d but reverse=%d", vals[i], vals[j], got, rev)
			}
			if i == j && got != 0 {
				t.Errorf("Compare(%v, itself) = %d", vals[i], got)
			}
		}
	}
}

// TestValueCompareBigIntsExact: two int64s are ordered exactly, also
// where a float64 rounds them to one value; an int against a float is
// still compared as floats.
func TestValueCompareBigIntsExact(t *testing.T) {
	for _, base := range []int64{1 << 53, 1 << 62, -1 << 62, math.MaxInt64 - 1} {
		a, b := IntValue(base), IntValue(base+1)
		if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
			t.Errorf("Compare(%d, %d) = %d, reverse %d", base, base+1, a.Compare(b), b.Compare(a))
		}
	}
	if got := IntValue(1<<53 + 1).Compare(FloatValue(1 << 53)); got != 0 {
		t.Errorf("Compare(2^53+1, 2^53 as a float) = %d, want 0 (the float rule)", got)
	}
}

// TestHashKeyIsTypedHash: HashKey is HashInt, HashFloat or HashString of
// the value, which the columnar join kernels call on typed columns.
func TestHashKeyIsTypedHash(t *testing.T) {
	for _, x := range []int64{0, -7, 1 << 53, math.MinInt64} {
		if IntValue(x).HashKey() != HashInt(x) {
			t.Errorf("HashKey(%d) != HashInt", x)
		}
	}
	for _, f := range []float64{0, 2.5, -3, math.NaN(), math.Inf(1), 1e300} {
		if FloatValue(f).HashKey() != HashFloat(f) {
			t.Errorf("HashKey(%v) != HashFloat", f)
		}
	}
	for _, s := range []string{"", "a", "héllo"} {
		if StringValue(s).HashKey() != HashString(s) {
			t.Errorf("HashKey(%q) != HashString", s)
		}
	}
}

func TestStoredBytes(t *testing.T) {
	ch := NewChunk(0, 1, []ScalarType{TypeInt64, TypeString})
	ch.AppendCell([]int64{1}, []Value{IntValue(10), StringValue("abc")})
	// 8 (coord) + 8 (int) + 3+4 (string)
	if got := ch.StoredBytes(); got != 23 {
		t.Errorf("StoredBytes = %d, want 23", got)
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := figure1Schema(t)
	if s.DimIndex("j") != 1 || s.DimIndex("zzz") != -1 {
		t.Error("DimIndex wrong")
	}
	if s.AttrIndex("v2") != 1 || s.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex wrong")
	}
	if !s.HasDim("i") || s.HasDim("v1") || !s.HasAttr("v1") || s.HasAttr("i") {
		t.Error("HasDim/HasAttr wrong")
	}
	r := s.Rename("Z")
	if r.Name != "Z" || s.Name != "A" {
		t.Error("Rename should copy")
	}
}

func TestArrayCellsAndStoredBytes(t *testing.T) {
	a := MustNew(figure1Schema(t))
	a.MustPut([]int64{1, 1}, []Value{IntValue(1), FloatValue(2)})
	a.MustPut([]int64{4, 4}, []Value{IntValue(3), FloatValue(4)})
	cells := a.Cells()
	if len(cells) != 2 {
		t.Fatalf("Cells = %d", len(cells))
	}
	if cells[0].Coords[0] != 1 || cells[0].Attrs[0].Int != 1 {
		t.Errorf("cells[0] = %+v", cells[0])
	}
	// 2 cells x (2 coords + 2 numeric attrs) x 8 bytes.
	if got := a.StoredBytes(); got != 64 {
		t.Errorf("StoredBytes = %d, want 64", got)
	}
}

func TestMustPutPanics(t *testing.T) {
	a := MustNew(figure1Schema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustPut should panic on bad coords")
		}
	}()
	a.MustPut([]int64{99, 99}, []Value{IntValue(1), FloatValue(1)})
}

// TestParseKeyRejects: ParseKey accepts only the text AppendKey writes
// for a position of the grid.
func TestParseKeyRejects(t *testing.T) {
	s := figure1Schema(t)
	if k, err := s.ParseKey("1,1"); err != nil || k != 3 {
		t.Fatalf(`ParseKey("1,1") = %d, %v; want 3`, k, err)
	}
	for _, text := range []string{"", "0", "0,0,0", "0,", ",0", "+1,0", "01,0", "0, 1", "2,0", "0,-1", "x,0",
		"0,99999999999999999999"} {
		if k, err := s.ParseKey(text); err == nil {
			t.Errorf("ParseKey(%q) = %d, want an error", text, k)
		}
	}
}

// TestSortedKeysCOrder: SortedKeys is the C-order of the chunk indices,
// also where an index has more than one digit (text order would put
// "10" before "2").
func TestSortedKeysCOrder(t *testing.T) {
	a := MustNew(MustParseSchema("S<v:int>[i=0,119,10, j=0,29,3]"))
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 400; n++ {
		a.MustPut([]int64{rng.Int63n(120), rng.Int63n(30)}, []Value{IntValue(1)})
	}
	keys := a.SortedKeys()
	if len(keys) != len(a.Chunks) {
		t.Fatalf("SortedKeys has %d keys, array stores %d chunks", len(keys), len(a.Chunks))
	}
	var prev, cur []int64
	for i, k := range keys {
		cur = a.Schema.KeyIndices(k, cur)
		if i > 0 && CompareCoords(prev, cur) >= 0 {
			t.Fatalf("key %d (%s) does not follow %v in C-order", i, a.Schema.AppendKey(nil, k), prev)
		}
		prev = append(prev[:0], cur...)
	}
}

// TestGridOverflowRejected: a schema whose chunk positions do not fit an
// int64 is an error — through ParseSchema and through New — while the
// synthetic row dimension of unordered join outputs (2^42 positions) and a
// grid of exactly 2^62 positions are accepted.
func TestGridOverflowRejected(t *testing.T) {
	for _, src := range []string{
		"O<v:int>[i=0,4294967295,1, j=0,2147483647,1]",           // 2^32 · 2^31 = 2^63
		"O<v:int>[i=0,3037000499,1, j=0,3037000499,1, k=0,1,1]",  // 3037000500² > 2^63 − 1
		"O<v:int>[i=-9223372036854775808,9223372036854775807,1]", // extent 2^64
		"O<v:int>[i=-1,9223372036854775807,4611686018427387904]", // extent 2^63
	} {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) accepted an overflowing grid", src)
		}
	}
	big := &Schema{Name: "O", Dims: []Dimension{
		{Name: "i", Start: 0, End: 1<<32 - 1, ChunkInterval: 1},
		{Name: "j", Start: 0, End: 1<<31 - 1, ChunkInterval: 1},
	}}
	if _, err := New(big); err == nil || !strings.Contains(err.Error(), "chunk positions") {
		t.Errorf("New accepted a 2^63-position grid: %v", err)
	}

	row := &Schema{Name: "T", Dims: []Dimension{{Name: "row_", Start: 0, End: math.MaxInt64 / 2, ChunkInterval: 1 << 20}}}
	if _, err := New(row); err != nil {
		t.Fatalf("New rejected the synthetic row dimension: %v", err)
	}
	if got := row.TotalChunks(); got != 1<<42 {
		t.Errorf("row dimension TotalChunks = %d, want 2^42", got)
	}
	edge, err := ParseSchema("E<v:int>[i=0,2147483647,1, j=0,2147483647,1]") // 2^62
	if err != nil {
		t.Fatalf("ParseSchema rejected a 2^62-position grid: %v", err)
	}
	last := ChunkKeyOf(edge, []int64{1<<31 - 1, 1<<31 - 1})
	if last != 1<<62-1 || string(edge.AppendKey(nil, last)) != "2147483647,2147483647" {
		t.Errorf("last key of the 2^62 grid = %d (%s)", last, edge.AppendKey(nil, last))
	}
}

func TestAppendCellPadsMissingAttrs(t *testing.T) {
	ch := NewChunk(0, 1, []ScalarType{TypeInt64, TypeFloat64})
	ch.AppendCell([]int64{1}, []Value{IntValue(5)}) // second attr missing
	_, attrs := ch.Cell(0)
	if attrs[1].Kind != TypeFloat64 || attrs[1].F != 0 {
		t.Errorf("missing attr should zero-fill, got %v", attrs[1])
	}
}

func TestZeroDimChunkLen(t *testing.T) {
	ch := &Chunk{NDims: 0, Cols: []Column{NewColumn(TypeInt64)}}
	ch.Cols[0].Append(IntValue(1))
	if ch.Len() != 1 {
		t.Errorf("zero-dim Len = %d", ch.Len())
	}
	empty := &Chunk{NDims: 0}
	if empty.Len() != 0 {
		t.Error("empty zero-dim chunk should have Len 0")
	}
}

func TestDimensionClamp(t *testing.T) {
	d := Dimension{Name: "v", Start: 1, End: 50, ChunkInterval: 10}
	for _, tc := range []struct {
		v, lenient int64
		inRange    bool
	}{{1, 1, true}, {50, 50, true}, {27, 27, true}, {0, 1, false}, {-9, 1, false}, {51, 50, false}, {500, 50, false}} {
		if got, err := d.Clamp(tc.v, false); err != nil || got != tc.lenient {
			t.Errorf("Clamp(%d, lenient) = %d, %v; want %d, nil", tc.v, got, err, tc.lenient)
		}
		got, err := d.Clamp(tc.v, true)
		if tc.inRange && (err != nil || got != tc.v) {
			t.Errorf("Clamp(%d, strict) = %d, %v; want the value unchanged", tc.v, got, err)
		}
		if !tc.inRange && (!errors.Is(err, ErrBounds) || !strings.Contains(err.Error(), "v=[1,50]")) {
			t.Errorf("Clamp(%d, strict) err = %v; want ErrBounds naming v=[1,50]", tc.v, err)
		}
	}
}

// NewChunk returns an empty chunk at the given position for a schema with
// nDims dimensions and the given attribute types.
func NewChunk(key ChunkKey, nDims int, attrTypes []ScalarType) *Chunk {
	ch := &Chunk{Key: key, NDims: nDims, Sorted: true}
	ch.Coords = make([][]int64, nDims)
	ch.Cols = make([]Column, len(attrTypes))
	for i, t := range attrTypes {
		ch.Cols[i] = NewColumn(t)
	}
	return ch
}

// TestAsFloatMatchesParseFloat: a string's AsFloat is ParseFloat's
// result, or NaN when ParseFloat fails, bit for bit — whether or not
// AsFloat calls ParseFloat — over a table of edge cases and random
// short strings drawn from the bytes a number can start with.
func TestAsFloatMatchesParseFloat(t *testing.T) {
	want := func(s string) uint64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			f = math.NaN()
		}
		return math.Float64bits(f)
	}
	check := func(s string) {
		if got := math.Float64bits(StringValue(s).AsFloat()); got != want(s) {
			t.Errorf("AsFloat(%q) = %v (bits %#x), want %v", s, math.Float64frombits(got), got, math.Float64frombits(want(s)))
		}
	}
	for _, s := range []string{"", "+", "-", ".5", "Inf", "-Infinity", "+inf", "infinit", "INFINITY", "+nan", "-NaN", "nan",
		"NAN", "nan1", "n/a", "0x1p-2", "1_0", " 1", "1e400", "-0", "+.", "x"} {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789.+-_eEpPxXiInNaAfFtTyY /"
	for i := 0; i < 10_000; i++ {
		b := make([]byte, rng.Intn(9))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}
}

// TestAsFloatUnparsableAllocs: a string ParseFloat is certain to reject
// reads as NaN without an allocation.
func TestAsFloatUnparsableAllocs(t *testing.T) {
	for _, s := range []string{"n/a", "x", "+nan", "info", ""} {
		v := StringValue(s)
		if n := testing.AllocsPerRun(100, func() { v.AsFloat() }); n != 0 {
			t.Errorf("AsFloat(%q) made %v allocations, want 0", s, n)
		}
	}
}
