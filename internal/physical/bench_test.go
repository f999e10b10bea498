package physical

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"shufflejoin/internal/join"
)

func benchProblem(tb testing.TB, n, k int) *Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := 0; i < n; i++ {
		l := make([]int64, k)
		r := make([]int64, k)
		for j := 0; j < k; j++ {
			l[j] = rng.Int63n(1000)
			r[j] = rng.Int63n(1000)
		}
		left[i], right[i] = l, r
	}
	pr, err := NewProblem(k, join.Hash, left, right, DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return pr
}

func BenchmarkMinBandwidth1024(b *testing.B) {
	pr := benchProblem(b, 1024, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (MinBandwidthPlanner{}).Plan(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTabu1024(b *testing.B) {
	pr := benchProblem(b, 1024, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (TabuPlanner{}).Plan(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoarseILP1024(b *testing.B) {
	pr := benchProblem(b, 1024, 4)
	pl := CoarseILPPlanner{Budget: 50 * time.Millisecond, Bins: 75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate1024(b *testing.B) {
	pr := benchProblem(b, 1024, 4)
	a := CenterOfGravity(pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Evaluate(a)
	}
}

var resultSink Result

// tabuLoop returns a loop that makes n Tabu plans of one units×k problem,
// so BenchmarkTabu391x32 and TestTabuAllocGate time and count the same
// region.
func tabuLoop(tb testing.TB, units, k int) func(n int) error {
	pr := benchProblem(tb, units, k)
	return func(n int) error {
		for i := 0; i < n; i++ {
			res, err := (TabuPlanner{}).Plan(pr)
			if err != nil {
				return err
			}
			resultSink = res
		}
		return nil
	}
}

// BenchmarkTabu391x32 plans wide_plan's shape: 391 units on 32 nodes.
func BenchmarkTabu391x32(b *testing.B) {
	loop := tabuLoop(b, 391, 32)
	b.ReportAllocs()
	b.ResetTimer()
	if err := loop(b.N); err != nil {
		b.Fatal(err)
	}
}

// TestTabuAllocGate bounds the allocations of one Tabu plan at 391×32, the
// BenchmarkTabu391x32 loop run a fixed number of times: the what-if and
// the candidate scan allocate nothing per move, so a plan costs its
// output, its tabu list and its per-node unit lists. Mallocs and bytes are
// counted across the loop divided by the iterations, with the collector
// off, and the least of three counts is held to the ceiling, since another
// test's goroutine or the runtime can allocate during a count now and
// then, where the plan allocates in every one.
func TestTabuAllocGate(t *testing.T) {
	const (
		iters     = 20
		maxAllocs = 10    // measured 10
		maxBytes  = 22192 // measured 22,192
	)
	loop := tabuLoop(t, 391, 32)
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := loop(iters)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/iters)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/iters)
	}
	if allocs > maxAllocs {
		t.Errorf("Tabu 391x32 = %d allocs/plan, want at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("Tabu 391x32 = %d B/plan, want at most %d", bytes, maxBytes)
	}
}
