package array

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// ChunkKey identifies a logical chunk position in array space: the
// C-order linear index of the chunk on its schema's grid,
// Σ_d idx_d · Π_{e>d} ChunkCount_e. Keys of one schema order as their
// chunk indices do in C-order, so sorting keys is sorting integers. A key
// means nothing without its schema: Schema.KeyIndices decodes it, and
// Schema.AppendKey renders the text form ("3,17") that leaves the process.
type ChunkKey int64

// ChunkKeyOf returns the key of the chunk containing the given coordinates
// under schema s. Coordinates must be in range (checked by Array.Put).
func ChunkKeyOf(s *Schema, coords []int64) ChunkKey {
	var k int64
	for i, d := range s.Dims {
		k = k*d.ChunkCount() + d.ChunkIndex(coords[i])
	}
	return ChunkKey(k)
}

// KeyIndices fills dst with the per-dimension chunk indices of key k and
// returns it; dst is reallocated only when it is too small.
func (s *Schema) KeyIndices(k ChunkKey, dst []int64) []int64 {
	if cap(dst) < len(s.Dims) {
		dst = make([]int64, len(s.Dims))
	}
	dst = dst[:len(s.Dims)]
	rest := int64(k)
	for d := len(s.Dims) - 1; d >= 0; d-- {
		n := s.Dims[d].ChunkCount()
		dst[d] = rest % n
		rest /= n
	}
	return dst
}

// AppendKey appends the text form of key k to b: its chunk indices in
// decimal, comma-separated. The text form is the key's only external
// encoding — storage files, the data fingerprint, hash placement and
// messages all use it.
func (s *Schema) AppendKey(b []byte, k ChunkKey) []byte {
	var buf [8]int64 // stack room for up to eight dimensions
	for d, idx := range s.KeyIndices(k, buf[:0]) {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, idx, 10)
	}
	return b
}

// ParseKey parses the text form of a chunk key, accepting only what
// AppendKey writes for a position of the grid: one decimal index per
// dimension, without sign or leading zeros, below the dimension's chunk
// count.
func (s *Schema) ParseKey(text []byte) (ChunkKey, error) {
	var k int64
	rest := text
	for d, dim := range s.Dims {
		part, tail, more := bytes.Cut(rest, []byte{','})
		v, ok := parseIndex(part)
		if more != (d < len(s.Dims)-1) || !ok || v >= dim.ChunkCount() {
			return 0, fmt.Errorf("array: chunk key %q is not a chunk position of %d dimensions", text, len(s.Dims))
		}
		k = k*dim.ChunkCount() + v
		rest = tail
	}
	return ChunkKey(k), nil
}

// parseIndex parses a canonical non-negative decimal: digits only, no
// leading zero unless it is "0", no overflow.
func parseIndex(s []byte) (int64, bool) {
	if len(s) == 0 || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := int64(s[i]) - '0'
		if c < 0 || c > 9 || v > (math.MaxInt64-c)/10 {
			return 0, false
		}
		v = v*10 + c
	}
	return v, true
}

// CompareCoords orders two coordinate vectors in C-order: the first
// dimension is the outermost, the last the innermost. It is the cell sort
// order within chunks (Section 2.1).
func CompareCoords(a, b []int64) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Chunk is a stored multidimensional subarray: the occupied cells of one
// logical chunk position. Storage is columnar ("vertically partitioned"):
// coordinates are stored as one column per dimension and each attribute is
// its own column, mirroring the on-disk layout of Figure 1(b).
//
// A chunk is either sorted (cells in C-order on the coordinates) or
// unsorted; rechunk produces unsorted chunks, redimension sorted ones.
type Chunk struct {
	Key    ChunkKey
	NDims  int
	Coords [][]int64 // Coords[d][row]: coordinate of dimension d for each cell
	Cols   []Column  // one column per attribute
	Sorted bool
}

// Column is one vertically partitioned attribute column of a chunk.
type Column struct {
	Type ScalarType
	Ints []int64   // used when Type == TypeInt64
	Fs   []float64 // used when Type == TypeFloat64
	Strs []string  // used when Type == TypeString
}

// NewColumn returns an empty column of the given type.
func NewColumn(t ScalarType) Column { return Column{Type: t} }

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case TypeInt64:
		return len(c.Ints)
	case TypeFloat64:
		return len(c.Fs)
	case TypeString:
		return len(c.Strs)
	}
	return 0
}

// Append adds a value, converting between numeric kinds as needed.
func (c *Column) Append(v Value) {
	switch c.Type {
	case TypeInt64:
		c.Ints = append(c.Ints, v.AsInt())
	case TypeFloat64:
		c.Fs = append(c.Fs, v.AsFloat())
	case TypeString:
		c.Strs = append(c.Strs, v.String())
	}
}

// Value returns the value at the given row.
func (c *Column) Value(row int) Value {
	switch c.Type {
	case TypeInt64:
		return IntValue(c.Ints[row])
	case TypeFloat64:
		return FloatValue(c.Fs[row])
	case TypeString:
		return StringValue(c.Strs[row])
	}
	return Value{}
}

// Len returns the number of occupied cells stored in the chunk.
func (ch *Chunk) Len() int {
	if ch.NDims == 0 {
		if len(ch.Cols) > 0 {
			return ch.Cols[0].Len()
		}
		return 0
	}
	return len(ch.Coords[0])
}

// AppendCell adds a cell. The chunk is marked unsorted unless the new cell
// extends the existing C-order.
func (ch *Chunk) AppendCell(coords []int64, attrs []Value) {
	if n := ch.Len(); ch.Sorted && n > 0 {
		// C-order against the last row, read in place.
		for d := 0; d < ch.NDims; d++ {
			if last := ch.Coords[d][n-1]; last != coords[d] {
				ch.Sorted = last < coords[d]
				break
			}
		}
	}
	for d := 0; d < ch.NDims; d++ {
		ch.Coords[d] = append(ch.Coords[d], coords[d])
	}
	for i := range ch.Cols {
		if i < len(attrs) {
			ch.Cols[i].Append(attrs[i])
		} else {
			ch.Cols[i].Append(Value{Kind: ch.Cols[i].Type})
		}
	}
}

// AppendColumns appends cells of src column by column: the rows listed in
// rows, in that order, or every row of src when rows is nil. src has the
// chunk's shape: as many coordinate columns, and attribute columns of the
// same types. Sorted ends as it would after appending the same cells one
// by one through AppendCell, including the check of the first new cell
// against the chunk's last.
func (ch *Chunk) AppendColumns(src *Chunk, rows []int32) {
	from := ch.Len()
	for d := range ch.Coords {
		ch.Coords[d] = gather(ch.Coords[d], src.Coords[d], rows)
	}
	for i := range ch.Cols {
		c, s := &ch.Cols[i], &src.Cols[i]
		switch c.Type {
		case TypeInt64:
			c.Ints = gather(c.Ints, s.Ints, rows)
		case TypeFloat64:
			c.Fs = gather(c.Fs, s.Fs, rows)
		case TypeString:
			c.Strs = gather(c.Strs, s.Strs, rows)
		}
	}
	if ch.Sorted {
		ch.Sorted = ch.ascendingFrom(max(from, 1))
	}
}

// Grow reserves room in every column for n more cells.
func (ch *Chunk) Grow(n int) {
	for d := range ch.Coords {
		ch.Coords[d] = slices.Grow(ch.Coords[d], n)
	}
	for i := range ch.Cols {
		switch c := &ch.Cols[i]; c.Type {
		case TypeInt64:
			c.Ints = slices.Grow(c.Ints, n)
		case TypeFloat64:
			c.Fs = slices.Grow(c.Fs, n)
		case TypeString:
			c.Strs = slices.Grow(c.Strs, n)
		}
	}
}

// gather appends src[rows[0]], src[rows[1]], … to dst, or all of src when
// rows is nil.
func gather[T any](dst, src []T, rows []int32) []T {
	if rows == nil {
		return append(dst, src...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	for i, r := range rows {
		dst[n+i] = src[r]
	}
	return dst
}

// ascendingFrom reports whether every row from `from` on extends the
// C-order of the row before it. A 1-D chunk, such as a row-numbered join
// output, is checked on its one column directly.
func (ch *Chunk) ascendingFrom(from int) bool {
	if ch.NDims == 1 {
		c := ch.Coords[0]
		for row := from; row < len(c); row++ {
			if c[row-1] > c[row] {
				return false
			}
		}
		return true
	}
	for row, n := from, ch.Len(); row < n; row++ {
		if ch.compareRows(row-1, row) > 0 {
			return false
		}
	}
	return true
}

// compareRows orders rows i and j in C-order on their coordinates.
func (ch *Chunk) compareRows(i, j int) int {
	for _, c := range ch.Coords {
		if a, b := c[i], c[j]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Cell materializes the cell at a row (coordinates plus attribute values).
func (ch *Chunk) Cell(row int) ([]int64, []Value) {
	coords := make([]int64, ch.NDims)
	for d := 0; d < ch.NDims; d++ {
		coords[d] = ch.Coords[d][row]
	}
	attrs := make([]Value, len(ch.Cols))
	for i := range ch.Cols {
		attrs[i] = ch.Cols[i].Value(row)
	}
	return coords, attrs
}

// CoordsAt fills dst with the coordinates of the cell at row and returns it.
func (ch *Chunk) CoordsAt(row int, dst []int64) []int64 {
	if cap(dst) < ch.NDims {
		dst = make([]int64, ch.NDims)
	}
	dst = dst[:ch.NDims]
	for d := 0; d < ch.NDims; d++ {
		dst[d] = ch.Coords[d][row]
	}
	return dst
}

// IsSortedCOrder verifies C-order by scanning; the tests of several
// packages check the sort invariant with it.
func (ch *Chunk) IsSortedCOrder() bool {
	n := ch.Len()
	prev := make([]int64, ch.NDims)
	cur := make([]int64, ch.NDims)
	for row := 1; row < n; row++ {
		prev = ch.CoordsAt(row-1, prev)
		cur = ch.CoordsAt(row, cur)
		if CompareCoords(prev, cur) > 0 {
			return false
		}
	}
	return true
}

// StoredBytes estimates the serialized size of the chunk: 8 bytes per
// coordinate and numeric attribute value, string lengths for strings. The
// database engine uses this as its transfer-size estimate.
func (ch *Chunk) StoredBytes() int64 {
	n := int64(ch.Len())
	bytes := n * int64(ch.NDims) * 8
	for i := range ch.Cols {
		c := &ch.Cols[i]
		switch c.Type {
		case TypeInt64, TypeFloat64:
			bytes += n * 8
		case TypeString:
			for _, s := range c.Strs {
				bytes += int64(len(s)) + 4
			}
		}
	}
	return bytes
}

// Clone returns a deep copy of the chunk.
func (ch *Chunk) Clone() *Chunk {
	c := &Chunk{Key: ch.Key, NDims: ch.NDims, Sorted: ch.Sorted}
	c.Coords = make([][]int64, len(ch.Coords))
	for d := range ch.Coords {
		c.Coords[d] = append([]int64(nil), ch.Coords[d]...)
	}
	c.Cols = make([]Column, len(ch.Cols))
	for i := range ch.Cols {
		src := &ch.Cols[i]
		c.Cols[i] = Column{Type: src.Type}
		c.Cols[i].Ints = append([]int64(nil), src.Ints...)
		c.Cols[i].Fs = append([]float64(nil), src.Fs...)
		c.Cols[i].Strs = append([]string(nil), src.Strs...)
	}
	return c
}
