package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(2)
	reg.Histogram("h", []float64{1, 2}).Observe(1.5)
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil snapshot = %v", snap)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil || buf.String() != "[]\n" {
		t.Fatalf("nil WriteJSON = %q, %v", buf.String(), err)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(2)
	r.Gauge("seconds").Add(1.5)
	h := r.Histogram("cells", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	snap := r.Snapshot()
	if snap["queries"] != 2 || snap["seconds"] != 1.5 {
		t.Fatalf("snapshot %v", snap)
	}
	if snap["cells.count"] != 3 || snap["cells.sum"] != 5055 || snap["cells.min"] != 5 || snap["cells.max"] != 5000 {
		t.Fatalf("histogram snapshot %v", snap)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 3, 20} {
		h.Observe(v)
	}
	m := r.m["x"]
	want := []int64{2, 1, 0, 1} // <=1: {0.5, 1}; <=4: {3}; <=16: {}; +Inf: {20}
	for i, c := range want {
		if m.hist[i] != c {
			t.Fatalf("bucket %d = %d, want %d (hist %v)", i, m.hist[i], c, m.hist)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("align.lock_waits").Add(7)
	r.Gauge("compare.skew").Set(2.5)
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(js.String(), `"kind": "gauge"`) {
		t.Fatalf("json output:\n%s", js.String())
	}
}
