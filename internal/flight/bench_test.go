package flight

import (
	"math"
	"runtime"
	"testing"
)

// BenchmarkFlightRecordSteadyState is the gated overhead benchmark:
// TestFlightHotPathGate fails if this allocates or exceeds the per-event
// latency ceiling.
func BenchmarkFlightRecordSteadyState(b *testing.B) {
	r := New(DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(EvBudgetCharge, 7, int64(i), 4096, 0, 0)
	}
}

// BenchmarkFlightRecordParallel measures contended recording — several
// goroutines racing the same ring, as compare workers do in real runs.
func BenchmarkFlightRecordParallel(b *testing.B) {
	r := New(DefaultCapacity)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			r.Record(EvBudgetCharge, 7, i, 4096, 0, 0)
		}
	})
}

// BenchmarkFlightLabelHot measures the interned-label fast path (RLock +
// map hit) that query-start recording takes on every repeated query.
func BenchmarkFlightLabelHot(b *testing.B) {
	r := New(64)
	r.Label("SELECT * FROM a JOIN b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Label("SELECT * FROM a JOIN b")
	}
}

func BenchmarkFlightSnapshot(b *testing.B) {
	r := New(1024)
	for i := 0; i < 2048; i++ {
		r.Record(EvBudgetCharge, 1, int64(i), 0, 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Snapshot(0)) != 1024 {
			b.Fatal("short snapshot")
		}
	}
}

// recordCeilingNs bounds one steady-state Record. The recorder is on by
// default for every query; ~90 ns is what it measures, and the ceiling
// absorbs machine noise without letting a regression to locks or boxing
// through.
const recordCeilingNs = 250

// TestFlightHotPathGate is the gate on the recorder's hot path: the bodies
// of BenchmarkFlightRecordSteadyState and BenchmarkFlightLabelHot, called
// not copied, must read 0 allocs/op at GOMAXPROCS 1, 2 and 8, and the
// fastest of the three Record runs (noise only ever adds time) must stay
// under recordCeilingNs — except under the race detector, whose
// instrumentation costs microseconds per event.
func TestFlightHotPathGate(t *testing.T) {
	best := int64(math.MaxInt64)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		record := testing.Benchmark(BenchmarkFlightRecordSteadyState)
		label := testing.Benchmark(BenchmarkFlightLabelHot)
		runtime.GOMAXPROCS(prev)
		if record.N == 0 || label.N == 0 {
			t.Fatalf("GOMAXPROCS=%d: a flight benchmark did not complete", procs)
		}
		if a := record.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkFlightRecordSteadyState = %d allocs/op, want 0", procs, a)
		}
		if a := label.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkFlightLabelHot = %d allocs/op, want 0", procs, a)
		}
		best = min(best, record.NsPerOp())
	}
	if !raceEnabled && best >= recordCeilingNs {
		t.Errorf("flight Record = %d ns/event at best, ceiling %d", best, recordCeilingNs)
	}
}
