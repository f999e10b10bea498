package batch

import (
	"errors"
	"testing"

	"shufflejoin/internal/flight"
)

func TestBudgetFlightEvents(t *testing.T) {
	fr := flight.New(64)
	b := NewBudget(100, false)
	b.SetFlight(fr, 9)

	if err := b.Acquire(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(60); err != nil { // crosses the limit: 120 > 100
		t.Fatal(err)
	}
	if err := b.Acquire(10); err != nil { // already over: no second overflow event
		t.Fatal(err)
	}
	b.Release(130)

	var charges, credits, overflows int
	for _, e := range fr.Snapshot(0) {
		if e.QID != 9 {
			t.Errorf("event qid = %d, want 9", e.QID)
		}
		switch e.Type {
		case flight.EvBudgetCharge:
			charges++
		case flight.EvBudgetCredit:
			credits++
			if e.Args[0] != 130 || e.Args[1] != 0 {
				t.Errorf("credit args = %v", e.Args)
			}
		case flight.EvBudgetOverflow:
			overflows++
			if e.Args[0] != 120 || e.Args[1] != 100 || e.Args[3] != 0 {
				t.Errorf("overflow args = %v", e.Args)
			}
		}
	}
	if charges != 3 || credits != 1 || overflows != 1 {
		t.Errorf("events charge/credit/overflow = %d/%d/%d, want 3/1/1", charges, credits, overflows)
	}
}

func TestBudgetStrictOverflowEvent(t *testing.T) {
	fr := flight.New(16)
	b := NewBudget(50, true)
	b.SetFlight(fr, 1)
	if err := b.Acquire(80); !errors.Is(err, ErrBudget) {
		t.Fatalf("strict acquire err = %v", err)
	}
	var ev *flight.Event
	for _, e := range fr.Snapshot(0) {
		if e.Type == flight.EvBudgetOverflow {
			ev = &e
		}
	}
	if ev == nil || ev.Args[3] != 1 {
		t.Fatalf("strict overflow event = %+v", ev)
	}
}

func TestBudgetWithoutFlight(t *testing.T) {
	// A budget with no recorder attached must behave exactly as before.
	b := NewBudget(10, true)
	if err := b.Acquire(5); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(10); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	b.Release(5) // the failed charge credited itself
	if b.Used() != 0 {
		t.Fatalf("Used = %d after releasing what was charged, want 0", b.Used())
	}
	var nilB *Budget
	nilB.SetFlight(flight.New(16), 1) // must not panic
}
