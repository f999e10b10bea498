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

// Chunk returns the stored chunk at key, creating it empty, with the
// schema's dimensions and attribute types, when absent.
func (a *Array) Chunk(key ChunkKey) *Chunk {
	ch, ok := a.Chunks[key]
	if !ok {
		ch = &Chunk{Key: key, NDims: len(a.Schema.Dims), Sorted: true,
			Coords: make([][]int64, len(a.Schema.Dims)), Cols: make([]Column, len(a.Schema.Attrs))}
		for i, at := range a.Schema.Attrs {
			ch.Cols[i].Type = at.Type
		}
		a.Chunks[key] = ch
	}
	return ch
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
	a.Chunk(ChunkKeyOf(a.Schema, coords)).AppendCell(coords, attrs)
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
		for row := blk.From; row < blk.To; row++ {
			coords, attrs := blk.Chunk.Cell(row)
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
