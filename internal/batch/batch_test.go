package batch

import (
	"errors"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
)

// TestBatchRoundTrip pins the columnar round trip: values written into
// a store decode back bit-identically, including exact Value kinds.
func TestBatchRoundTrip(t *testing.T) {
	types := []array.ScalarType{array.TypeInt64, array.TypeFloat64, array.TypeString}
	in := NewIntern()
	cells := [][]array.Value{
		{array.IntValue(7), array.FloatValue(1.5), array.StringValue("port")},
		{array.IntValue(-3), array.FloatValue(0), array.StringValue("")},
		{array.IntValue(7), array.FloatValue(-2.25), array.StringValue("port")},
	}
	b := Get(2, types, len(cells))
	defer Put(b)
	if len(b.Coords[0]) != len(cells) {
		t.Fatalf("rows = %d, want %d", len(b.Coords[0]), len(cells))
	}
	for i, vals := range cells {
		b.Coords[0][i], b.Coords[1][i] = int64(i), int64(-i)
		b.Cols[0].Ints[i] = vals[0].Int
		b.Cols[1].Fs[i] = vals[1].F
		b.Cols[2].Codes[i] = in.ID(vals[2].Str)
	}
	for i, vals := range cells {
		if b.Coords[0][i] != int64(i) || b.Coords[1][i] != int64(-i) {
			t.Errorf("cell %d coords = (%d,%d)", i, b.Coords[0][i], b.Coords[1][i])
		}
		for c := range vals {
			if got := b.Cols[c].Value(i, in); !reflect.DeepEqual(got, vals[c]) {
				t.Errorf("cell %d col %d = %#v, want %#v", i, c, got, vals[c])
			}
		}
	}
}

// TestInternDedup pins the dictionary: repeated strings share one code,
// codes decode back exactly, and the distinct count grows only on first
// sight.
func TestInternDedup(t *testing.T) {
	in := NewIntern()
	a1 := in.ID("anchorage")
	b1 := in.ID("berth")
	a2 := in.ID("anchorage")
	if a1 != a2 {
		t.Errorf("same string interned as %d and %d", a1, a2)
	}
	if a1 == b1 {
		t.Errorf("distinct strings share code %d", a1)
	}
	if in.Str(a1) != "anchorage" || in.Str(b1) != "berth" {
		t.Errorf("decode mismatch: %q, %q", in.Str(a1), in.Str(b1))
	}
	if in.Count() != 2 {
		t.Errorf("Count = %d, want 2", in.Count())
	}
	in.ID("anchorage")
	if in.Count() != 2 {
		t.Errorf("Count = %d after a repeated string, want 2", in.Count())
	}
}

// TestBudgetCounted: without strict mode the budget never fails; it
// tracks usage, records the peak, and reports overflow past the limit.
func TestBudgetCounted(t *testing.T) {
	b := NewBudget(100, false)
	if err := b.Acquire(80); err != nil {
		t.Fatalf("Acquire(80): %v", err)
	}
	if err := b.Acquire(70); err != nil {
		t.Fatalf("counted mode must not fail: %v", err)
	}
	if b.Used() != 150 || b.Peak() != 150 {
		t.Errorf("Used=%d Peak=%d, want 150,150", b.Used(), b.Peak())
	}
	b.Release(80)
	if b.Used() != 70 || b.Peak() != 150 {
		t.Errorf("after Release: Used=%d Peak=%d, want 70,150", b.Used(), b.Peak())
	}
	if got := b.OverflowBytes(); got != 50 {
		t.Errorf("OverflowBytes = %d, want 50", got)
	}
	// No limit set means no overflow, whatever the peak.
	free := NewBudget(0, false)
	free.Acquire(1 << 30)
	if got := free.OverflowBytes(); got != 0 {
		t.Errorf("unlimited OverflowBytes = %d, want 0", got)
	}
}

// TestBudgetStrict: in strict mode the acquire that crosses the limit
// fails with ErrBudget and credits its own charge; the peak keeps it.
func TestBudgetStrict(t *testing.T) {
	b := NewBudget(100, true)
	if err := b.Acquire(100); err != nil {
		t.Fatalf("Acquire at the limit: %v", err)
	}
	err := b.Acquire(1)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Acquire over the limit = %v, want ErrBudget", err)
	}
	if b.Used() != 100 || b.Peak() != 101 {
		t.Errorf("after the failed Acquire: Used=%d Peak=%d, want 100,101", b.Used(), b.Peak())
	}
}

// TestBudgetNil: a nil budget is a no-op accountant, so unbudgeted
// callers need no branches.
func TestBudgetNil(t *testing.T) {
	var b *Budget
	if err := b.Acquire(10); err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	b.Release(10)
	if b.Used() != 0 || b.Peak() != 0 || b.OverflowBytes() != 0 {
		t.Error("nil budget must report zeros")
	}
}
