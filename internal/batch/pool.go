package batch

import (
	"shufflejoin/internal/array"

	"shufflejoin/internal/par"
)

// Reshape reconfigures a recycled batch for a new layout, retaining as
// much of its grown column storage as possible: dimension and value
// columns are revived by reslicing within their kept capacity (a column
// that shrank away in one query and returns in the next gets its old
// backing array back, because the header slots beyond len survive the
// intermediate reslices), and a Col keeps all three typed backing
// slices, so changing a column's type costs nothing. After Reshape the
// batch is empty, shaped exactly as New(ndims, types, capacity) would
// shape it.
func (b *Batch) Reshape(ndims int, types []array.ScalarType, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	b.capacity = capacity
	if ndims <= cap(b.Coords) {
		b.Coords = b.Coords[:ndims]
	} else {
		b.Coords = append(b.Coords[:cap(b.Coords)], make([][]int64, ndims-cap(b.Coords))...)
	}
	for d := range b.Coords {
		b.Coords[d] = b.Coords[d][:0]
	}
	if len(types) <= cap(b.Cols) {
		b.Cols = b.Cols[:len(types)]
	} else {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]Col, len(types)-cap(b.Cols))...)
	}
	for i, t := range types {
		b.Cols[i].Type = t
		b.Cols[i].reset()
	}
}

// pool recycles batches across queries and concurrent producers. It is
// a process-wide par.Pool, not a sync.Pool and not a per-RunSet free
// list: per-RunSet lists threw the grown storage away at query end,
// while a sync.Pool is drained by the collector under exactly the
// allocation pressure (concurrent query output assembly) the pool
// exists to absorb. Capacity follows Pool semantics: a bounded free
// list, excess Puts dropped.
var pool = par.NewPool[*Batch](1024)

// Get returns an empty batch shaped for the given layout: a recycled
// one (Reshape'd, retaining grown storage from any prior query) when
// the pool has one, else a fresh New batch.
func Get(ndims int, types []array.ScalarType, capacity int) *Batch {
	if b, ok := pool.Get(); ok {
		b.Reshape(ndims, types, capacity)
		return b
	}
	return New(ndims, types, capacity)
}

// Put recycles a batch for any later Get, across queries. The caller
// must not use b afterward.
func Put(b *Batch) {
	if b != nil {
		pool.Put(b)
	}
}
