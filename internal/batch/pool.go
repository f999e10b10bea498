package batch

import (
	"shufflejoin/internal/array"

	"shufflejoin/internal/par"
)

// MaxPooledRows bounds the rows the data plane's pools keep: a row pool
// holds at most poolStores items of at most MaxPooledRows rows in all,
// and per-unit scratch grown past it is left to the collector, so huge
// sides do not pin their storage for the life of the process, while two
// sides of 2^19 rows each are both kept.
const (
	MaxPooledRows = 1 << 20
	poolStores    = 4
)

// NewRowPool returns a pool bounded as above; rows reports an item's
// rows. The store pool and the slice map's per-row scratch use it.
func NewRowPool[T any](rows func(T) int) *par.Pool[T] {
	return par.NewSizedPool(poolStores, MaxPooledRows, rows)
}

// pool recycles stores across queries and concurrent slice maps. It is
// a par.Pool, not a sync.Pool: a sync.Pool is drained by the collector
// under exactly the allocation pressure (concurrent query output
// assembly) the pool exists to absorb, and the bytes a query allocates
// would vary from run to run.
var pool = NewRowPool(func(b *Batch) int { return b.grown })

// Get returns a store of exactly rows rows shaped for the layout: ndims
// coordinate columns and one column per type. The rows' contents are
// undefined; the caller writes every one. A recycled store reuses every
// column it has grown, of every type, that is large enough.
func Get(ndims int, types []array.ScalarType, rows int) *Batch {
	b, ok := pool.Get()
	if !ok {
		b = new(Batch)
	}
	b.grown = max(b.grown, rows)
	b.Coords = fit(b.Coords, ndims)
	for d := range b.Coords {
		b.Coords[d] = fit(b.Coords[d], rows)
	}
	b.Cols = fit(b.Cols, len(types))
	for i, t := range types {
		c := &b.Cols[i]
		c.Type = t
		switch t {
		case array.TypeInt64:
			c.Ints = fit(c.Ints, rows)
		case array.TypeFloat64:
			c.Fs = fit(c.Fs, rows)
		case array.TypeString:
			c.Codes = fit(c.Codes, rows)
		}
	}
	return b
}

// Put recycles a store for any later Get, unless the pool is full. The
// caller must not use b afterward.
func Put(b *Batch) {
	if b != nil {
		pool.Put(b)
	}
}

// fit returns s with length n: resliced within its capacity, which
// keeps the columns a wider layout left past its length, or else a new
// slice of exactly n, so a pooled store's capacity never exceeds the
// rows of a use the pool kept.
func fit[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}
