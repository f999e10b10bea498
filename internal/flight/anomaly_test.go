package flight

import (
	"strings"
	"testing"
)

// feed runs n identical observations through the detector.
func feed(d *Detector, n int, compare []float64, recv []int64) []Anomaly {
	var out []Anomaly
	for i := 0; i < n; i++ {
		out = append(out, d.Observe("q", compare, recv, nil)...)
	}
	return out
}

func TestDetectorFlagsStraggler(t *testing.T) {
	rec := New(64)
	d := NewDetector(rec)
	compare := []float64{1, 1, 10, 1}

	// Before warmup nothing is flagged.
	if got := feed(d, 2, compare, nil); len(got) != 0 {
		t.Fatalf("anomalies before warmup: %+v", got)
	}
	got := feed(d, 1, compare, nil)
	if len(got) != 1 || got[0].Kind != "straggler-compare" || got[0].Node != 2 {
		t.Fatalf("want straggler-compare on node 2, got %+v", got)
	}
	if !strings.Contains(got[0].String(), "node 2") {
		t.Errorf("annotation = %q", got[0].String())
	}

	// Rising edge only: the same persistent straggler is not re-raised.
	if again := feed(d, 5, compare, nil); len(again) != 0 {
		t.Fatalf("persistent straggler re-raised: %+v", again)
	}

	// The anomaly was recorded as a flight event.
	var found bool
	for _, e := range rec.Snapshot(0) {
		if e.Type == EvAnomaly && rec.LabelName(e.Args[0]) == "straggler-compare" && e.Args[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no EvAnomaly flight event for the straggler")
	}

	snap := d.Snapshot()
	if snap.Flagged != 1 || snap.Nodes[2].StragglerSince == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
	if n, s := d.Flagged(); n != 1 || s != 2 {
		t.Errorf("Flagged() = %d, %d", n, s)
	}

	// Recovery: balanced load clears the flag, and a relapse re-raises.
	feed(d, 30, []float64{1, 1, 1, 1}, nil)
	if n, s := d.Flagged(); n != 0 || s != -1 {
		t.Errorf("after recovery Flagged() = %d, %d", n, s)
	}
	relapse := feed(d, 30, compare, nil)
	if len(relapse) != 1 || relapse[0].Node != 2 {
		t.Fatalf("relapse not re-raised: %+v", relapse)
	}
}

func TestDetectorFlagsHotReceiver(t *testing.T) {
	d := NewDetector(nil)
	recv := []int64{100, 5000, 100, 100}
	got := feed(d, 3, nil, recv)
	var hot *Anomaly
	for i := range got {
		if got[i].Kind == "hot-receiver" {
			hot = &got[i]
		}
	}
	if hot == nil || hot.Node != 1 {
		t.Fatalf("want hot-receiver on node 1, got %+v", got)
	}
}

func TestDetectorHotUnits(t *testing.T) {
	d := NewDetector(nil)
	units := []int64{10, 10, 9000, 10, 10, 10, 10, 10}
	got := d.Observe("q", nil, nil, units)
	if len(got) != 1 || got[0].Kind != "hot-unit" || got[0].Unit != 2 {
		t.Fatalf("want hot-unit 2, got %+v", got)
	}
	if got[0].Node != -1 {
		t.Errorf("hot-unit node = %d, want -1", got[0].Node)
	}
}

func TestDetectorRingBound(t *testing.T) {
	d := NewDetector(nil)
	// Each query has a different hot unit position, raising one anomaly
	// per call.
	const n = detectorHistory + 6
	for i := 0; i < n; i++ {
		units := make([]int64, 8)
		for j := range units {
			units[j] = 10
		}
		units[i%8] = 100000
		d.Observe("q", nil, nil, units)
	}
	snap := d.Snapshot()
	if snap.Total != n || len(snap.Recent) != detectorHistory {
		t.Fatalf("total=%d recent=%d, want %d/%d", snap.Total, len(snap.Recent), n, detectorHistory)
	}
	// Newest first.
	if snap.Recent[0].Seq != n || snap.Recent[detectorHistory-1].Seq != n-detectorHistory+1 {
		t.Errorf("ring order: %+v", snap.Recent)
	}
}

func TestNilDetector(t *testing.T) {
	var d *Detector
	if got := d.Observe("q", []float64{1, 9}, nil, nil); got != nil {
		t.Error("nil detector observed something")
	}
	if snap := d.Snapshot(); snap.Queries != 0 {
		t.Error("nil snapshot not empty")
	}
	if n, s := d.Flagged(); n != 0 || s != -1 {
		t.Errorf("nil Flagged() = %d, %d", n, s)
	}
}

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
