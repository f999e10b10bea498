package array

import (
	"encoding/binary"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// FuzzChunkKey builds a schema from every 24 bytes of raw (start, end and
// chunk interval of one dimension, up to four) and checks two things.
// Validate, and ParseSchema on the schema's text, accept it exactly when
// big-integer arithmetic says every dimension is well formed and the
// chunk grid has at most MaxInt64 positions. When it is accepted, the key
// of a cell chosen by pick and the grid's last key round-trip key ↔
// indices ↔ text, and each key equals its big-integer C-order index.
func FuzzChunkKey(f *testing.F) {
	dims := func(ds ...int64) []byte {
		var raw []byte
		for _, v := range ds {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
		}
		return raw
	}
	f.Add(dims(1, 6, 3, 1, 6, 3), uint64(7))
	f.Add(dims(0, math.MaxInt64/2, 1<<20), uint64(1)<<60)
	f.Add(dims(-5, 60, 4, 0, 30, 7, -4, 4, 2), uint64(12345))
	f.Add(dims(0, 1<<31-1, 1, 0, 1<<31-1, 1), uint64(math.MaxUint64))
	f.Add(dims(0, 1<<32-1, 1, 0, 1<<31-1, 1), uint64(0))
	f.Add(dims(math.MinInt64, math.MaxInt64, 1), uint64(3))
	f.Add(dims(1, 10, 0), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, pick uint64) {
		s := &Schema{Name: "F", Attrs: []Attribute{{Name: "v", Type: TypeInt64}}}
		for len(raw) >= 24 && len(s.Dims) < 4 {
			s.Dims = append(s.Dims, Dimension{
				Name:          "d" + strconv.Itoa(len(s.Dims)),
				Start:         int64(binary.LittleEndian.Uint64(raw)),
				End:           int64(binary.LittleEndian.Uint64(raw[8:])),
				ChunkInterval: int64(binary.LittleEndian.Uint64(raw[16:])),
			})
			raw = raw[24:]
		}
		if len(s.Dims) == 0 {
			return
		}

		// The verdict in big integers: extents and chunk counts exact.
		maxInt := big.NewInt(math.MaxInt64)
		counts := make([]*big.Int, len(s.Dims))
		total := big.NewInt(1)
		valid := true
		for d, dim := range s.Dims {
			ext := new(big.Int).Sub(big.NewInt(dim.End), big.NewInt(dim.Start))
			ext.Add(ext, big.NewInt(1))
			if dim.ChunkInterval <= 0 || ext.Sign() <= 0 || ext.Cmp(maxInt) > 0 {
				valid = false
				break
			}
			ci := big.NewInt(dim.ChunkInterval)
			counts[d] = new(big.Int).Div(new(big.Int).Add(ext, new(big.Int).Sub(ci, big.NewInt(1))), ci)
			total.Mul(total, counts[d])
		}
		valid = valid && total.Cmp(maxInt) <= 0
		if err := s.Validate(); (err == nil) != valid {
			t.Fatalf("%s: Validate = %v, big-integer arithmetic says valid=%v", s, err, valid)
		}
		if _, err := ParseSchema(s.String()); (err == nil) != valid {
			t.Fatalf("%s: ParseSchema = %v, big-integer arithmetic says valid=%v", s, err, valid)
		}
		if !valid {
			return
		}
		if got := s.TotalChunks(); got != total.Int64() {
			t.Fatalf("%s: TotalChunks = %d, want %s", s, got, total)
		}

		// A cell chosen by pick, and the grid's last cell.
		cell := make([]int64, len(s.Dims))
		last := make([]int64, len(s.Dims))
		for d, dim := range s.Dims {
			pick = pick*6364136223846793005 + 1442695040888963407
			cell[d] = dim.Start + int64(pick%uint64(dim.Extent()))
			last[d] = dim.End
		}
		for _, coords := range [][]int64{cell, last} {
			key := ChunkKeyOf(s, coords)
			want := new(big.Int)
			idx := s.KeyIndices(key, nil)
			parts := make([]string, len(s.Dims))
			for d, dim := range s.Dims {
				if idx[d] != dim.ChunkIndex(coords[d]) {
					t.Fatalf("%s: key %d of %v decodes to %v", s, key, coords, idx)
				}
				want.Mul(want, counts[d]).Add(want, big.NewInt(idx[d]))
				parts[d] = strconv.FormatInt(idx[d], 10)
			}
			if want.Cmp(big.NewInt(int64(key))) != 0 {
				t.Fatalf("%s: key of %v = %d, want C-order index %s", s, coords, key, want)
			}
			text := string(s.AppendKey(nil, key))
			if text != strings.Join(parts, ",") {
				t.Fatalf("%s: text of key %d = %q, want %q", s, key, text, strings.Join(parts, ","))
			}
			if back, err := s.ParseKey([]byte(text)); err != nil || back != key {
				t.Fatalf("%s: ParseKey(%q) = %d, %v; want %d", s, text, back, err, key)
			}
		}
	})
}
