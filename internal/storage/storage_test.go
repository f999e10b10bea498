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
			t.Errorf("chunk %s sorted flag lost", key)
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
// position of the schema's chunk grid, or repeats, fails to decode. Keys
// of the wrong arity used to decode and then panic the chunk ordering.
func TestChunkKeyChecked(t *testing.T) {
	chunk := func(p []byte, key string) []byte {
		p = binary.AppendUvarint(p, uint64(len(key)))
		p = append(p, key...)
		p = binary.AppendUvarint(p, 1) // one cell
		p = binary.AppendUvarint(p, 1) // sorted
		p = binary.AppendUvarint(p, 2) // two dimensions
		p = binary.AppendVarint(p, 1)
		p = binary.AppendVarint(p, 1)
		p = binary.AppendUvarint(p, 1) // one column
		p = binary.AppendUvarint(p, uint64(array.TypeInt64))
		return binary.AppendVarint(p, 7)
	}
	file := func(keys ...string) []byte {
		p := []byte(magic)
		p = binary.AppendUvarint(p, formatVersion)
		schema := "A<v:int>[i=1,10,5, j=1,10,5]"
		p = binary.AppendUvarint(p, uint64(len(schema)))
		p = append(p, schema...)
		p = binary.AppendUvarint(p, uint64(len(keys)))
		for _, k := range keys {
			p = chunk(p, k)
		}
		return sealed(p)
	}
	if _, err := ReadArray(bytes.NewReader(file("0,0", "1,1"))); err != nil {
		t.Fatalf("well-formed keys: %v", err)
	}
	for _, keys := range [][]string{
		{"0"}, {"0,0,0"}, {"0,0", "1"}, {""}, {"0,"}, {"+1,0"}, {"01,0"}, {"0, 1"},
		{"2,0"}, {"0,-1"}, {"x,0"}, {"0,0", "0,0"},
	} {
		if _, err := ReadArray(bytes.NewReader(file(keys...))); err == nil {
			t.Errorf("chunk keys %q decoded without error", keys)
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
