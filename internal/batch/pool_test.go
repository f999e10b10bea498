package batch

import (
	"testing"

	"shufflejoin/internal/array"
)

// drain empties the process-wide store pool, so a test sees only the
// stores it puts.
func drain() {
	for {
		if _, ok := pool.Get(); !ok {
			return
		}
	}
}

// TestPoolRecyclesStore: a recycled store is reshaped for the new
// layout and keeps the storage it has grown, of every column.
func TestPoolRecyclesStore(t *testing.T) {
	drain()
	it, ft := array.TypeInt64, array.TypeFloat64
	b := Get(2, []array.ScalarType{it, ft}, 10)
	dim1, ints := &b.Coords[1][0], &b.Cols[0].Ints[0]
	Put(b)
	Put(nil) // must be a no-op

	// Narrower: one dimension, one float column, fewer rows.
	got := Get(1, []array.ScalarType{ft}, 8)
	if got != b {
		t.Fatal("Get did not return the pooled store")
	}
	if len(got.Coords) != 1 || len(got.Cols) != 1 || got.Cols[0].Type != ft || len(got.Coords[0]) != 8 || len(got.Cols[0].Fs) != 8 {
		t.Fatalf("reshaped store: %d dims, %d cols, %d rows", len(got.Coords), len(got.Cols), len(got.Coords[0]))
	}
	Put(got)

	// Wider again: the dimension and int column the narrow use did not
	// need come back with their storage.
	got = Get(2, []array.ScalarType{it, ft}, 10)
	if got != b || &got.Coords[1][0] != dim1 || &got.Cols[0].Ints[0] != ints {
		t.Fatal("a recycled store lost the storage of a column it had grown")
	}
	Put(got)
}

// TestPoolBounds: the pool keeps at most poolStores stores, and none of
// more than maxPooledRows rows.
func TestPoolBounds(t *testing.T) {
	drain()
	types := []array.ScalarType{array.TypeInt64}
	big := Get(1, types, maxPooledRows+1)
	Put(big)
	if b, ok := pool.Get(); ok {
		t.Fatalf("the pool kept a store of %d rows, bound %d", len(b.Coords[0]), maxPooledRows)
	}
	atBound := Get(1, types, maxPooledRows)
	Put(atBound)
	if b, ok := pool.Get(); !ok || b != atBound {
		t.Fatalf("the pool dropped a store of %d rows, bound %d", maxPooledRows, maxPooledRows)
	}

	stores := make([]*Batch, poolStores+2)
	for i := range stores {
		stores[i] = Get(1, types, 1)
	}
	for _, b := range stores {
		Put(b)
	}
	kept := 0
	for _, ok := pool.Get(); ok; _, ok = pool.Get() {
		kept++
	}
	if kept != poolStores {
		t.Fatalf("the pool kept %d stores, bound %d", kept, poolStores)
	}
}
