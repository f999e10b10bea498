// Package batch implements the columnar stores of the data plane. A
// Batch holds cells in the same vertically partitioned layout the chunk
// store uses — one int64 column per dimension plus one typed column per
// carried value — so the slice map copies chunk columns into it column
// by column, and the join kernels read whole key columns at once. A
// join unit's side is a Run: spans of one store, read in order.
//
// String values are dictionary-encoded: a column of type
// array.TypeString stores uint32 codes into a query-shared Intern
// table, so a store's memory footprint is a flat 8 bytes per stored
// value regardless of string content, and repeated strings are stored
// once per query. Stores are pooled (Get, Put) across queries, which is
// what makes a warm slice map's allocations independent of its cells.
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

// Batch is a columnar store of cells: Coords[d][row] holds the
// coordinate of dimension d, Cols[c] the c-th carried value column.
// Every column has the store's row count.
type Batch struct {
	Coords [][]int64
	Cols   []Col
}

// Span is the rows [Lo, Hi) of a store.
type Span struct{ Lo, Hi int }

// Run is one side of a join unit: spans of one store, read in order. A
// run's rows number its cells across its spans in that order.
type Run struct {
	Store *Batch
	Spans []Span
}

// Len returns the run's cells.
func (r Run) Len() int {
	n := 0
	for _, s := range r.Spans {
		n += s.Hi - s.Lo
	}
	return n
}

// Add appends the rows [lo, hi) to the run, extending its last span
// when the two are contiguous. An empty range adds nothing.
func (r *Run) Add(lo, hi int) {
	switch n := len(r.Spans); {
	case lo == hi:
	case n > 0 && r.Spans[n-1].Hi == lo:
		r.Spans[n-1].Hi = hi
	default:
		r.Spans = append(r.Spans, Span{lo, hi})
	}
}

// Flat returns one column of a run as a single slice: the store's own
// storage when the run is one span, else every span's rows copied in
// run order into *buf, which keeps its capacity for the next call. col
// selects the column, e.g. a coordinate or a Col's typed storage.
func Flat[T any](r Run, col func(*Batch) []T, buf *[]T) []T {
	if len(r.Spans) == 1 {
		s := r.Spans[0]
		return col(r.Store)[s.Lo:s.Hi:s.Hi]
	}
	out := (*buf)[:0]
	for _, s := range r.Spans {
		out = append(out, col(r.Store)[s.Lo:s.Hi]...)
	}
	*buf = out
	return out
}
