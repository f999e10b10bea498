// Package batch implements the bounded columnar cell batches of the
// streaming data plane. A Batch is a fixed-capacity window of cells in
// the same vertically partitioned layout the chunk store uses — one
// int64 column per dimension plus one typed column per carried value —
// so producers append cells without materializing per-cell coordinate
// or attribute slices, and consumers decode whole windows at once.
//
// String values are dictionary-encoded: a column of type
// array.TypeString stores uint32 codes into a query-shared Intern
// table, so a batch's memory footprint is a flat 8 bytes per stored
// value regardless of string content, and repeated strings are stored
// once per query. Batches are reusable (Reset) and are pooled by their
// producers, which is what makes the steady-state streaming path
// allocation-free.
//
// The companion types — Intern (the shared dictionary) and Budget (the
// per-query memory accountant with counted and strict overflow modes)
// — complete the package. See DESIGN.md §11.
package batch

import "shufflejoin/internal/array"

// Col is one value column of a batch: dimension-typed storage selected
// by Type, exactly mirroring array.Column except that strings are
// stored as dictionary codes rather than string headers.
type Col struct {
	Type  array.ScalarType
	Ints  []int64   // Type == array.TypeInt64
	Fs    []float64 // Type == array.TypeFloat64
	Codes []uint32  // Type == array.TypeString: codes into the query Intern
}

// Append adds one value, interning strings through in. The value's kind
// must match the column type (producers append straight from same-typed
// chunk columns).
func (c *Col) Append(v array.Value, in *Intern) {
	switch c.Type {
	case array.TypeInt64:
		c.Ints = append(c.Ints, v.AsInt())
	case array.TypeFloat64:
		c.Fs = append(c.Fs, v.AsFloat())
	case array.TypeString:
		c.Codes = append(c.Codes, in.ID(v.Str))
	}
}

// Value reconstructs the value at row i. The result is bit-identical to
// what array.Column.Value would have produced for the same source cell:
// the reconstructed Value kinds (and, for strings, contents) match the
// materializing path exactly.
func (c *Col) Value(i int, in *Intern) array.Value {
	switch c.Type {
	case array.TypeInt64:
		return array.IntValue(c.Ints[i])
	case array.TypeFloat64:
		return array.FloatValue(c.Fs[i])
	case array.TypeString:
		return array.StringValue(in.Str(c.Codes[i]))
	}
	return array.Value{}
}

// reset truncates the column for reuse, keeping capacity.
func (c *Col) reset() {
	c.Ints = c.Ints[:0]
	c.Fs = c.Fs[:0]
	c.Codes = c.Codes[:0]
}

// Batch is a fixed-capacity columnar window of cells: Coords[d][row]
// holds the coordinate of dimension d, Cols[c] the c-th carried value
// column. Producers fill it to capacity, hand it downstream, and
// recycle it via Reset once the consumer is done.
type Batch struct {
	Coords   [][]int64
	Cols     []Col
	capacity int
}

// New returns an empty batch for ndims dimensions and the given value
// column types, with row capacity cap (at least 1). Column storage
// grows lazily toward the capacity as cells arrive — a slice map's many
// partially filled tail batches (one per sparse (unit, node) run) then
// cost only what they hold — and, once grown, is retained across Reset,
// so pooled batches reach a steady state with no further allocation.
func New(ndims int, types []array.ScalarType, capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	b := &Batch{capacity: capacity}
	b.Coords = make([][]int64, ndims)
	b.Cols = make([]Col, len(types))
	for i, t := range types {
		b.Cols[i] = Col{Type: t}
	}
	return b
}

// Len returns the number of cells currently stored.
func (b *Batch) Len() int {
	if len(b.Coords) > 0 {
		return len(b.Coords[0])
	}
	if len(b.Cols) > 0 {
		c := &b.Cols[0]
		switch c.Type {
		case array.TypeInt64:
			return len(c.Ints)
		case array.TypeFloat64:
			return len(c.Fs)
		case array.TypeString:
			return len(c.Codes)
		}
	}
	return 0
}

// Full reports whether the batch has reached capacity.
func (b *Batch) Full() bool { return b.Len() >= b.capacity }

// Reset truncates the batch for reuse, keeping all column capacity.
func (b *Batch) Reset() {
	for d := range b.Coords {
		b.Coords[d] = b.Coords[d][:0]
	}
	for i := range b.Cols {
		b.Cols[i].reset()
	}
}

// Bytes returns the accounted memory of the stored cells: a flat 8
// bytes per coordinate and per value (string codes are charged 8 like
// every other value; the strings themselves are owned by the Intern
// table). This is the quantity Budget tracks.
func (b *Batch) Bytes() int64 {
	return int64(b.Len()) * 8 * int64(len(b.Coords)+len(b.Cols))
}

// Flat returns one column of a run of batches as a single slice: the
// batch's own storage when the run is one batch, else every batch's
// column copied in run order into *buf, which keeps its capacity for
// the next call. col selects the column, e.g. a coordinate or a Col's
// typed storage.
func Flat[T any](run []*Batch, col func(*Batch) []T, buf *[]T) []T {
	if len(run) == 1 {
		return col(run[0])
	}
	out := (*buf)[:0]
	for _, b := range run {
		out = append(out, col(b)...)
	}
	*buf = out
	return out
}
