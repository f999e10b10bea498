package batch

import (
	"runtime"
	"testing"

	"shufflejoin/internal/array"
)

func TestReshape(t *testing.T) {
	it := array.TypeInt64
	ft := array.TypeFloat64
	st := array.TypeString

	b := New(2, []array.ScalarType{it, st}, 4)
	in := NewIntern()
	b.AppendCell([]int64{1, 2}, []array.Value{array.IntValue(7), array.StringValue("x")}, in)
	b.AppendCell([]int64{3, 4}, []array.Value{array.IntValue(8), array.StringValue("y")}, in)

	// Reshape to a wider layout with different column types.
	b.Reshape(3, []array.ScalarType{ft, it, it}, 16)
	if b.Len() != 0 || b.capacity != 16 {
		t.Fatalf("after Reshape: Len=%d capacity=%d, want 0/16", b.Len(), b.capacity)
	}
	if len(b.Coords) != 3 || len(b.Cols) != 3 {
		t.Fatalf("shape = %d dims / %d cols, want 3/3", len(b.Coords), len(b.Cols))
	}
	for i, want := range []array.ScalarType{ft, it, it} {
		if b.Cols[i].Type != want {
			t.Fatalf("col %d type = %v, want %v", i, b.Cols[i].Type, want)
		}
	}
	b.AppendCell([]int64{9, 9, 9}, []array.Value{array.FloatValue(1.5), array.IntValue(2), array.IntValue(3)}, in)
	if b.Len() != 1 || b.Coords[2][0] != 9 || b.Cols[0].Fs[0] != 1.5 {
		t.Fatal("reshaped batch does not store cells correctly")
	}

	// Shrink back down; grown storage beyond the new shape is retained
	// within capacity, so a later re-widening reuses it.
	b.Reshape(1, []array.ScalarType{it}, 4)
	if len(b.Coords) != 1 || len(b.Cols) != 1 || b.Len() != 0 {
		t.Fatalf("after shrink: %d dims / %d cols / len %d", len(b.Coords), len(b.Cols), b.Len())
	}
	grown := b.Coords[:3][2] // the dim-2 backing slice survives the shrink
	if cap(grown) == 0 {
		t.Fatal("shrink dropped retained dimension storage")
	}
}

// TestReshapeMatchesNew pins that a recycled, reshaped batch behaves
// exactly like a fresh one for the same layout.
func TestReshapeMatchesNew(t *testing.T) {
	types := []array.ScalarType{array.TypeInt64, array.TypeFloat64}
	in := NewIntern()

	fresh := New(2, types, 8)
	recycled := New(5, []array.ScalarType{array.TypeString, array.TypeString, array.TypeString}, 3)
	recycled.AppendCell([]int64{1, 2, 3, 4, 5}, []array.Value{
		array.StringValue("a"), array.StringValue("b"), array.StringValue("c")}, in)
	recycled.Reshape(2, types, 8)

	for _, b := range []*Batch{fresh, recycled} {
		for i := 0; i < 8; i++ {
			b.AppendCell([]int64{int64(i), int64(-i)},
				[]array.Value{array.IntValue(int64(i * 10)), array.FloatValue(float64(i) / 2)}, in)
		}
	}
	if fresh.Len() != recycled.Len() || fresh.Bytes() != recycled.Bytes() || !recycled.Full() {
		t.Fatalf("fresh Len/Bytes %d/%d vs recycled %d/%d",
			fresh.Len(), fresh.Bytes(), recycled.Len(), recycled.Bytes())
	}
	for i := 0; i < 8; i++ {
		for d := 0; d < 2; d++ {
			if fresh.Coords[d][i] != recycled.Coords[d][i] {
				t.Fatalf("coords diverge at row %d dim %d", i, d)
			}
		}
		for c := 0; c < 2; c++ {
			if fresh.Cols[c].Value(i, in) != recycled.Cols[c].Value(i, in) {
				t.Fatalf("values diverge at row %d col %d", i, c)
			}
		}
	}
}

func TestPoolRecycles(t *testing.T) {
	types := []array.ScalarType{array.TypeInt64}
	b := Get(1, types, 4)
	in := NewIntern()
	b.AppendCell([]int64{1}, []array.Value{array.IntValue(1)}, in)
	Put(b)
	got := Get(2, []array.ScalarType{array.TypeInt64, array.TypeFloat64}, 8)
	if got.Len() != 0 || len(got.Coords) != 2 || got.capacity != 8 {
		t.Fatalf("recycled batch: Len=%d dims=%d capacity=%d", got.Len(), len(got.Coords), got.capacity)
	}
	Put(got)
	Put(nil) // must be a no-op
}

// BenchmarkBatchPoolConcurrent is the batch pool's gate: steady-state
// batch Get/fill/Put must stay at 0 allocs/op under concurrency, on
// every core count (TestBatchPoolZeroAllocs enforces it).
func BenchmarkBatchPoolConcurrent(b *testing.B) {
	types := []array.ScalarType{array.TypeInt64, array.TypeInt64}
	in := NewIntern()
	coords := []int64{3, 4}
	vals := []array.Value{array.IntValue(1), array.IntValue(2)}
	// Warm the pool past the worker count so the steady state never
	// falls back to New.
	warm := make([]*Batch, 64)
	for i := range warm {
		warm[i] = Get(2, types, 64)
	}
	for _, bt := range warm {
		// Fill once so column storage is grown before measurement.
		for !bt.Full() {
			bt.AppendCell(coords, vals, in)
		}
		bt.Reset()
		Put(bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bt := Get(2, types, 64)
			for !bt.Full() {
				bt.AppendCell(coords, vals, in)
			}
			bt.Reset()
			Put(bt)
		}
	})
}

// TestBatchPoolZeroAllocs is the gate on BenchmarkBatchPoolConcurrent: the
// benchmark body, called not copied, must read 0 allocs/op on every core
// count.
func TestBatchPoolZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res := testing.Benchmark(BenchmarkBatchPoolConcurrent)
		runtime.GOMAXPROCS(prev)
		if res.N == 0 {
			t.Fatalf("GOMAXPROCS=%d: BenchmarkBatchPoolConcurrent did not complete", procs)
		}
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkBatchPoolConcurrent = %d allocs/op, want 0", procs, a)
		}
	}
}
