package flight

import "testing"

func TestHotUnits(t *testing.T) {
	// Uniform: nothing hot.
	if got := HotUnits([]int64{500, 500, 500, 500}); len(got) != 0 {
		t.Errorf("uniform units flagged: %+v", got)
	}
	// Below the absolute floor: a dominant but tiny unit stays quiet.
	if got := HotUnits([]int64{1, 1, 100, 1}); len(got) != 0 {
		t.Errorf("tiny units flagged: %+v", got)
	}
	// Two dominant units, largest first.
	cells := make([]int64, 16)
	for i := range cells {
		cells[i] = 10
	}
	cells[1], cells[3] = 20000, 40000
	got := HotUnits(cells)
	if len(got) != 2 || got[0].Unit != 3 || got[1].Unit != 1 {
		t.Fatalf("hot units = %+v", got)
	}
	if got[0].Cells != 40000 || got[0].Mean != got[1].Mean {
		t.Errorf("hot unit fields = %+v", got)
	}
	// Cap respected: five qualify, maxHotUnits reported, largest first.
	many := make([]int64, 64)
	many[5], many[9], many[20], many[33], many[40] = 100004, 100003, 100002, 100001, 100000
	got = HotUnits(many)
	if len(got) != maxHotUnits || got[0].Unit != 5 || got[1].Unit != 9 || got[maxHotUnits-1].Unit != 33 {
		t.Errorf("capped hot units = %+v", got)
	}
	if HotUnits(nil) != nil {
		t.Error("nil units should yield nil")
	}
}

// TestHotUnitsTieOrder: hot units with equal cell counts come out in
// ascending unit order, so a profile that lists them is deterministic.
func TestHotUnitsTieOrder(t *testing.T) {
	cells := make([]int64, 32)
	cells[20], cells[7], cells[13] = 5000, 5000, 9000
	got := HotUnits(cells)
	if len(got) != 3 || got[0].Unit != 13 || got[1].Unit != 7 || got[2].Unit != 20 {
		t.Fatalf("hot units = %+v, want units 13, 7, 20", got)
	}
}
