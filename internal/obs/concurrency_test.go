package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentUse hammers every mutating accessor from
// goroutines while snapshots, table renders, and Prometheus exports read
// concurrently. Run under -race (the tier-1 CI does) this is the
// registry's thread-safety proof; the final assertions pin the exact
// totals, so lost updates fail even without the race detector.
func TestRegistryConcurrentUse(t *testing.T) {
	const (
		goroutines = 8
		iters      = 500
	)
	r := NewRegistry()
	r.Counter("c")
	r.Gauge("g")
	r.Histogram("h", []float64{1, 10, 100})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(float64(id))
				h := r.Histogram("h", []float64{1, 10, 100})
				h.Observe(float64(j % 150))

				// Concurrent readers must always see a consistent registry.
				snap := r.Snapshot()
				if snap["h.count"] > 0 && snap["h.min"] > snap["h.max"] {
					t.Errorf("inconsistent snapshot: min %g > max %g", snap["h.min"], snap["h.max"])
				}
				if j%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
					if err := r.WriteJSON(&b); err != nil {
						t.Errorf("WriteJSON: %v", err)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	snap := r.Snapshot()
	wantC := float64(goroutines * iters)
	if snap["c"] != wantC {
		t.Errorf("counter c = %g, want %g", snap["c"], wantC)
	}
	wantN := float64(goroutines * iters)
	if snap["h.count"] != wantN {
		t.Errorf("histogram count = %g, want %g", snap["h.count"], wantN)
	}
	if g := snap["g"]; g < 0 || g >= goroutines {
		t.Errorf("gauge g = %g, want last-writer value in [0,%d)", g, goroutines)
	}

	// Two quiesced exports must agree: consecutive renders see the same
	// settled state.
	var f1, f2 strings.Builder
	if err := r.WriteJSON(&f1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&f2); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Error("JSON export not stable across consecutive renders")
	}
}
