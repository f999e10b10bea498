package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"shufflejoin/internal/array"
	"shufflejoin/internal/workload"
)

func randomArray(seed int64) *array.Array {
	rng := rand.New(rand.NewSource(seed))
	a := array.MustNew(array.MustParseSchema("A<v1:int, v2:float, v3:string>[i=1,200,20, j=1,100,25]"))
	for n := 0; n < 300; n++ {
		a.MustPut(
			[]int64{rng.Int63n(200) + 1, rng.Int63n(100) + 1},
			[]array.Value{
				array.IntValue(rng.Int63() - rng.Int63()),
				array.FloatValue(rng.NormFloat64()),
				array.StringValue(string(rune('a' + rng.Intn(26)))),
			})
	}
	a.SortAll()
	return a
}

func TestRoundTrip(t *testing.T) {
	a := randomArray(1)
	var buf bytes.Buffer
	if err := WriteArray(&buf, a); err != nil {
		t.Fatalf("WriteArray: %v", err)
	}
	got, err := ReadArray(&buf)
	if err != nil {
		t.Fatalf("ReadArray: %v", err)
	}
	if got.Schema.String() != a.Schema.String() {
		t.Errorf("schema = %s, want %s", got.Schema, a.Schema)
	}
	if !reflect.DeepEqual(got.Cells(), a.Cells()) {
		t.Error("cells differ after round trip")
	}
	for key, ch := range a.Chunks {
		if got.Chunks[key] == nil || got.Chunks[key].Sorted != ch.Sorted {
			t.Errorf("chunk %d sorted flag lost", key)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomArray(seed)
		var buf bytes.Buffer
		if err := WriteArray(&buf, a); err != nil {
			return false
		}
		got, err := ReadArray(&buf)
		if err != nil {
			return false
		}
		return got.CellCount() == a.CellCount() &&
			reflect.DeepEqual(got.Cells(), a.Cells())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	a := randomArray(2)
	var buf bytes.Buffer
	if err := WriteArray(&buf, a); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF
	if _, err := ReadArray(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted payload should fail the checksum")
	}
}

func TestTruncatedFile(t *testing.T) {
	if _, err := ReadArray(bytes.NewReader([]byte("SJ"))); err == nil {
		t.Error("truncated file should error")
	}
	a := randomArray(3)
	var buf bytes.Buffer
	_ = WriteArray(&buf, a)
	if _, err := ReadArray(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("half a file should error")
	}
}

// sealed appends the trailing CRC-32 a reader expects, so a crafted payload
// gets past the checksum and into the decoder.
func sealed(payload []byte) []byte {
	return binary.BigEndian.AppendUint32(payload[:len(payload):len(payload)], crc32.ChecksumIEEE(payload))
}

// TestCraftedCounts: a checksum-valid file whose chunk claims far more
// cells than the payload could hold must fail to decode — not panic in
// make (1<<62 cells) or allocate gigabytes (1<<33) for a few dozen bytes.
func TestCraftedCounts(t *testing.T) {
	for _, cells := range []uint64{1 << 33, 1 << 62, 1<<64 - 1} {
		p := []byte(magic)
		p = binary.AppendUvarint(p, formatVersion)
		schema := "A<v:int>[i=1,10,5]"
		p = binary.AppendUvarint(p, uint64(len(schema)))
		p = append(p, schema...)
		p = binary.AppendUvarint(p, 1) // one chunk
		p = binary.AppendUvarint(p, 1) // its key "0"
		p = append(p, '0')
		p = binary.AppendUvarint(p, cells)
		p = binary.AppendUvarint(p, 1) // sorted
		p = binary.AppendUvarint(p, 1) // one dimension, then nothing

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadArray(bytes.NewReader(sealed(p)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bytes left") {
			t.Errorf("%d cells in a %d-byte payload: err = %v, want a count-exceeds-payload error", cells, len(p), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%d cells: decoding a %d-byte payload allocated %d bytes", cells, len(p), grew)
		}
	}
}

// TestTruncatedMidColumn cuts a valid payload at every tenth byte and
// re-seals it: each prefix must decode to an error, whichever count or
// column the cut lands in.
func TestTruncatedMidColumn(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArray(&buf, randomArray(4)); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[:buf.Len()-4]
	for cut := len(magic); cut < len(payload); cut += 10 {
		if _, err := ReadArray(bytes.NewReader(sealed(payload[:cut]))); err == nil {
			t.Fatalf("payload cut at byte %d of %d decoded without error", cut, len(payload))
		}
	}
}

// TestChunkKeyChecked: a checksum-valid file whose chunk key is not a
// position of the schema's chunk grid, or repeats, fails to decode, and
// so does one with a cell outside the dimension ranges or outside the
// chunk its key names. Keys of the wrong arity used to decode and then
// panic the chunk ordering.
func TestChunkKeyChecked(t *testing.T) {
	type chunk struct {
		key  string
		i, j int64 // the chunk's one cell
	}
	file := func(chunks ...chunk) []byte {
		p := []byte(magic)
		p = binary.AppendUvarint(p, formatVersion)
		schema := "A<v:int>[i=1,10,5, j=1,10,5]"
		p = binary.AppendUvarint(p, uint64(len(schema)))
		p = append(p, schema...)
		p = binary.AppendUvarint(p, uint64(len(chunks)))
		for _, c := range chunks {
			p = binary.AppendUvarint(p, uint64(len(c.key)))
			p = append(p, c.key...)
			p = binary.AppendUvarint(p, 1) // one cell
			p = binary.AppendUvarint(p, 1) // sorted
			p = binary.AppendUvarint(p, 2) // two dimensions
			p = binary.AppendVarint(p, c.i)
			p = binary.AppendVarint(p, c.j)
			p = binary.AppendUvarint(p, 1) // one column
			p = binary.AppendUvarint(p, uint64(array.TypeInt64))
			p = binary.AppendVarint(p, 7)
		}
		return sealed(p)
	}
	if _, err := ReadArray(bytes.NewReader(file(chunk{"0,0", 1, 1}, chunk{"1,1", 6, 10}))); err != nil {
		t.Fatalf("well-formed keys: %v", err)
	}
	for _, keys := range [][]string{
		{"0"}, {"0,0,0"}, {"0,0", "1"}, {""}, {"0,"}, {"+1,0"}, {"01,0"}, {"0, 1"},
		{"2,0"}, {"0,-1"}, {"x,0"}, {"0,0", "0,0"},
	} {
		var chunks []chunk
		for _, k := range keys {
			chunks = append(chunks, chunk{k, 1, 1})
		}
		if _, err := ReadArray(bytes.NewReader(file(chunks...))); err == nil {
			t.Errorf("chunk keys %q decoded without error", keys)
		}
	}
	for _, c := range []chunk{
		{"0,0", 6, 1},  // in chunk 1,0
		{"0,0", 1, 6},  // in chunk 0,1
		{"1,1", 6, 11}, // j past the dimension's end
		{"0,0", 0, 1},  // i before the dimension's start
		{"1,0", 11, 1}, // i past the end, in what would be chunk 2
	} {
		if _, err := ReadArray(bytes.NewReader(file(c))); err == nil || !strings.Contains(err.Error(), "outside chunk") {
			t.Errorf("cell (%d,%d) under key %q decoded: %v", c.i, c.j, c.key, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	raw := append([]byte("NOPE"), make([]byte, 16)...)
	if _, err := ReadArray(bytes.NewReader(raw)); err == nil {
		t.Error("bad magic should error")
	}
}

func TestEmptyArray(t *testing.T) {
	a := array.MustNew(array.MustParseSchema("E<v:int>[i=1,10,5]"))
	var buf bytes.Buffer
	if err := WriteArray(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CellCount() != 0 {
		t.Errorf("empty array round-tripped with %d cells", got.CellCount())
	}
}

// TestStoreSaveReadArray: Store.Save writes a file ReadArray decodes back
// to the same array, under the "<name>.sjar" name the CLI loads.
func TestStoreSaveReadArray(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := randomArray(4)
	ships := workload.AISLike("Ships", workload.GeoConfig{Cells: 2000, Seed: 5})
	for _, want := range []*array.Array{a, ships} {
		if err := s.Save(want); err != nil {
			t.Fatalf("Save %s: %v", want.Schema.Name, err)
		}
		f, err := os.Open(filepath.Join(dir, want.Schema.Name+".sjar"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadArray(f)
		f.Close()
		if err != nil {
			t.Fatalf("ReadArray %s: %v", want.Schema.Name, err)
		}
		if got.Schema.String() != want.Schema.String() || !reflect.DeepEqual(got.Cells(), want.Cells()) {
			t.Errorf("%s differs after Save and ReadArray", want.Schema.Name)
		}
	}
}

// compatArray builds the array a committed compat file holds: n cells at
// seeded random positions, so some chunks stay empty, with every chunk of
// an even cell count sorted, so both sorted flags occur.
func compatArray(schema string, n int) *array.Array {
	a := array.MustNew(array.MustParseSchema(schema))
	rng := rand.New(rand.NewSource(int64(n)))
	coords := make([]int64, len(a.Schema.Dims))
	for c := 0; c < n; c++ {
		for d, dim := range a.Schema.Dims {
			coords[d] = dim.Start + rng.Int63n(dim.Extent())
		}
		a.MustPut(coords, []array.Value{
			array.IntValue(rng.Int63n(1000) - 500),
			array.FloatValue(rng.NormFloat64()),
			array.StringValue(string(rune('a' + rng.Intn(26)))),
		})
	}
	for _, ch := range a.Chunks {
		if ch.Len()%2 == 0 {
			ch.Sort()
		}
	}
	return a
}

// TestCompatFiles: the committed 2-D and 3-D files were written when chunk
// keys were held as their text form. Each reads back and re-writes to the
// same bytes, and the array it was written from, rebuilt, writes them too.
func TestCompatFiles(t *testing.T) {
	for _, c := range []struct {
		file, schema  string
		cells, chunks int
	}{
		{"compat_2d.sjar", "C2<v:int, x:float, s:string>[i=-5,60,4, j=0,30,7]", 100, 59},
		{"compat_3d.sjar", "C3<v:int, x:float, s:string>[p=1,9,3, q=-4,4,2, r=0,99,25]", 60, 39},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		a, err := ReadArray(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if a.CellCount() != int64(c.cells) || a.ChunkCount() != c.chunks {
			t.Errorf("%s: %d cells in %d chunks, want %d in %d", c.file, a.CellCount(), a.ChunkCount(), c.cells, c.chunks)
		}
		for name, src := range map[string]*array.Array{"re-written": a, "rebuilt": compatArray(c.schema, c.cells)} {
			var got bytes.Buffer
			if err := WriteArray(&got, src); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: %s array writes %d bytes that differ from the file's %d", c.file, name, got.Len(), len(want))
			}
		}
	}
}

// strSink keeps a read string alive, as a decoded array does.
var strSink string

// TestReadStringAllocatesOnce: a string read from a file costs one
// allocation, its own bytes. compat_2d.sjar reads 160 strings: the schema
// literal, 59 chunk keys and 100 one-byte cells. A []byte-then-copy
// decode reads a one-byte string in one allocation too, but the other 60
// at two apiece, so the ceiling sits halfway between the two decodes,
// leaving room for Go versions to differ in map and schema allocations.
func TestReadStringAllocatesOnce(t *testing.T) {
	enc := binary.AppendUvarint(nil, 12)
	enc = append(enc, "chunk(3, 14)"...)
	r := bytes.NewReader(enc)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(enc)
		var err error
		if strSink, err = readString(r); err != nil || strSink != "chunk(3, 14)" {
			t.Fatalf("readString = %q, %v", strSink, err)
		}
	}); n != 1 {
		t.Errorf("readString = %v allocs, want 1", n)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "compat_2d.sjar"))
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 747 // measured 717 with Go 1.24; two per string is 777
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ReadArray(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Errorf("ReadArray(compat_2d.sjar) = %v allocs, want at most %d", n, maxAllocs)
	}
}

// TestReadArrayRejectsGridOverflow: a file whose schema has more chunk
// positions than an int64 holds fails to decode.
func TestReadArrayRejectsGridOverflow(t *testing.T) {
	p := []byte(magic)
	p = binary.AppendUvarint(p, formatVersion)
	schema := "O<v:int>[i=0,4294967295,1, j=0,2147483647,1]"
	p = binary.AppendUvarint(p, uint64(len(schema)))
	p = append(p, schema...)
	p = binary.AppendUvarint(p, 0) // no chunks
	if _, err := ReadArray(bytes.NewReader(sealed(p))); err == nil || !strings.Contains(err.Error(), "chunk positions") {
		t.Errorf("ReadArray of a 2^63-position grid: %v, want a chunk-positions error", err)
	}
}
