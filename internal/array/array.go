package array

import (
	"fmt"
	"slices"
)

// Array is a sparse multidimensional array: a schema plus the set of its
// occupied (stored) chunks, keyed by chunk position. Only chunks containing
// at least one occupied cell are stored.
type Array struct {
	Schema *Schema
	Chunks map[ChunkKey]*Chunk
}

// New returns an empty array with the given schema. The schema is validated.
func New(s *Schema) (*Array, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Array{Schema: s, Chunks: make(map[ChunkKey]*Chunk)}, nil
}

// MustNew is New but panics on an invalid schema.
func MustNew(s *Schema) *Array {
	a, err := New(s)
	if err != nil {
		panic(err)
	}
	return a
}

// attrTypes returns the schema attribute types, used to create chunks.
func (a *Array) attrTypes() []ScalarType {
	ts := make([]ScalarType, len(a.Schema.Attrs))
	for i, at := range a.Schema.Attrs {
		ts[i] = at.Type
	}
	return ts
}

// Put stores a cell at the given coordinates. Coordinates are validated
// against the dimension ranges. Writing to an occupied position appends a
// duplicate (the ADM stores what it is given; deduplication is the loader's
// concern).
func (a *Array) Put(coords []int64, attrs []Value) error {
	if len(coords) != len(a.Schema.Dims) {
		return fmt.Errorf("array: %s: got %d coordinates, schema has %d dimensions",
			a.Schema.Name, len(coords), len(a.Schema.Dims))
	}
	for i, d := range a.Schema.Dims {
		if !d.Contains(coords[i]) {
			return fmt.Errorf("array: %s: coordinate %s=%d outside [%d,%d]",
				a.Schema.Name, d.Name, coords[i], d.Start, d.End)
		}
	}
	key := ChunkKeyOf(a.Schema, coords)
	ch, ok := a.Chunks[key]
	if !ok {
		ch = NewChunk(key, len(a.Schema.Dims), a.attrTypes())
		a.Chunks[key] = ch
	}
	ch.AppendCell(coords, attrs)
	return nil
}

// MustPut is Put but panics on error; for tests and generators whose
// coordinates are constructed in range.
func (a *Array) MustPut(coords []int64, attrs []Value) {
	if err := a.Put(coords, attrs); err != nil {
		panic(err)
	}
}

// Get returns the attribute values of the first stored cell at coords, or
// false if the position is empty.
func (a *Array) Get(coords []int64) ([]Value, bool) {
	key := ChunkKeyOf(a.Schema, coords)
	ch, ok := a.Chunks[key]
	if !ok {
		return nil, false
	}
	tmp := make([]int64, ch.NDims)
	for row := 0; row < ch.Len(); row++ {
		tmp = ch.CoordsAt(row, tmp)
		if CompareCoords(tmp, coords) == 0 {
			_, attrs := ch.Cell(row)
			return attrs, true
		}
	}
	return nil, false
}

// CellCount returns the total number of occupied cells stored.
func (a *Array) CellCount() int64 {
	var n int64
	for _, ch := range a.Chunks {
		n += int64(ch.Len())
	}
	return n
}

// ChunkCount returns the number of stored (non-empty) chunks.
func (a *Array) ChunkCount() int { return len(a.Chunks) }

// StoredBytes returns the estimated serialized size of all stored chunks.
func (a *Array) StoredBytes() int64 {
	var n int64
	for _, ch := range a.Chunks {
		n += ch.StoredBytes()
	}
	return n
}

// SortAll sorts every stored chunk into C-order.
func (a *Array) SortAll() {
	for _, ch := range a.Chunks {
		ch.Sort()
	}
}

// SortedKeys returns the stored chunk keys in C-order of their chunk
// indices, giving a deterministic traversal of array space. It sorts on
// every call: Chunks is written directly (storage, Clone), so a cached
// order could go stale.
func (a *Array) SortedKeys() []ChunkKey {
	keys := make([]ChunkKey, 0, len(a.Chunks))
	for k := range a.Chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Scan calls fn for every stored cell in chunk-key C-order and in-chunk row
// order. Returning false from fn stops the scan.
func (a *Array) Scan(fn func(coords []int64, attrs []Value) bool) {
	for _, key := range a.SortedKeys() {
		ch := a.Chunks[key]
		for row := 0; row < ch.Len(); row++ {
			coords, attrs := ch.Cell(row)
			if !fn(coords, attrs) {
				return
			}
		}
	}
}

// Cells materializes every stored cell (coords, attrs) in deterministic
// order. It is a thin collect-all wrapper over the pull-based Scanner —
// full materialization is legitimate only for tests, small arrays, and
// exhaustive operators; streaming consumers should use NewScanner
// instead.
func (a *Array) Cells() []StoredCell {
	out := make([]StoredCell, 0, a.CellCount())
	sc := a.NewScanner(0)
	for {
		blk, ok := sc.Next()
		if !ok {
			return out
		}
		ch := blk.Chunk
		for row := blk.From; row < blk.To; row++ {
			coords := make([]int64, ch.NDims)
			for d := 0; d < ch.NDims; d++ {
				coords[d] = ch.Coords[d][row]
			}
			attrs := make([]Value, len(ch.Cols))
			for i := range ch.Cols {
				attrs[i] = ch.Cols[i].Value(row)
			}
			out = append(out, StoredCell{Coords: coords, Attrs: attrs})
		}
	}
}

// StoredCell is one materialized cell: coordinates plus attribute values.
type StoredCell struct {
	Coords []int64
	Attrs  []Value
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := &Array{Schema: a.Schema.Clone(), Chunks: make(map[ChunkKey]*Chunk, len(a.Chunks))}
	for k, ch := range a.Chunks {
		c.Chunks[k] = ch.Clone()
	}
	return c
}
