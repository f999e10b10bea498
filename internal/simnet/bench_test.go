package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func benchTransfers(n, k int) []Transfer {
	rng := rand.New(rand.NewSource(1))
	trs := make([]Transfer, n)
	for i := range trs {
		trs[i] = Transfer{From: rng.Intn(k), To: rng.Intn(k), Cells: rng.Int63n(5000) + 1}
	}
	return trs
}

func BenchmarkSimulateGreedy(b *testing.B) {
	trs := benchTransfers(2048, 8)
	cfg := Config{Nodes: 8, PerCellTime: 1e-6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, trs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateFIFO(b *testing.B) {
	trs := benchTransfers(2048, 8)
	cfg := Config{Nodes: 8, PerCellTime: 1e-6, Scheduling: FIFONoSkip}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, trs); err != nil {
			b.Fatal(err)
		}
	}
}

// fullScaleCases are the tracked simnet workloads: 4 and 12 nodes are the
// paper's evaluation scale (1024 join units, each shipping up to k-1
// remote slices); 64 nodes × 100k+ transfers is the beyond-paper scale
// ROADMAP aims at, where the original rescan-everything loop's O(T·N·Q)
// cost would dominate end-to-end latency.
func fullScaleCases() []struct {
	k, n int
} {
	return []struct{ k, n int }{
		{4, 1024 * 3},
		{12, 1024 * 11},
		{64, 1600 * 63}, // 100 800 transfers
	}
}

var benchSchedulers = []struct {
	name string
	s    Scheduling
}{{"greedy", GreedyLocks}, {"fifo", FIFONoSkip}}

// fullScaleGuard runs each benchmark workload once through both the
// indexed scheduler and the reference loop and requires equal makespans,
// so the tracked ns/op numbers can never come from a scheduler that
// drifted semantically. Guards are memoized: the testing package re-enters
// each sub-benchmark with growing b.N, and the reference run is expensive.
var fullScaleGuard = struct {
	sync.Mutex
	done map[string]float64 // name → reference makespan
}{done: map[string]float64{}}

func guardMakespan(b *testing.B, name string, cfg Config, trs []Transfer) {
	b.Helper()
	fullScaleGuard.Lock()
	defer fullScaleGuard.Unlock()
	want, ok := fullScaleGuard.done[name]
	if !ok {
		ref, err := simulateReference(cfg, trs)
		if err != nil {
			b.Fatal(err)
		}
		want = ref.Makespan
		fullScaleGuard.done[name] = want
	}
	got, err := Simulate(cfg, trs)
	if err != nil {
		b.Fatal(err)
	}
	if got.Makespan != want {
		b.Fatalf("%s: makespan %v diverges from reference %v", name, got.Makespan, want)
	}
}

// BenchmarkSimulateFullScale exercises the indexed event-driven scheduler
// at the transfer counts a `-scale full` expdriver run produces, plus the
// beyond-paper 64-node case; BenchmarkSimulateReferenceFullScale is its
// old-vs-new twin. Each sub-benchmark first asserts its makespan matches
// the reference path's.
func BenchmarkSimulateFullScale(b *testing.B) {
	for _, c := range fullScaleCases() {
		trs := benchTransfers(c.n, c.k)
		for _, sched := range benchSchedulers {
			cfg := Config{Nodes: c.k, PerCellTime: 1e-6, Scheduling: sched.s}
			b.Run(fmt.Sprintf("%s/nodes=%d", sched.name, c.k), func(b *testing.B) {
				guardMakespan(b, fmt.Sprintf("%s/nodes=%d", sched.name, c.k), cfg, trs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Simulate(cfg, trs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulateReferenceFullScale is the pre-index dispatch loop on
// the paper-scale workloads: the "old" half of the old-vs-new speedup CI
// tracks. The 64-node beyond-paper case is omitted — the reference loop
// takes seconds per run there, which is the point of the rewrite.
func BenchmarkSimulateReferenceFullScale(b *testing.B) {
	for _, c := range fullScaleCases() {
		if c.k > 12 {
			continue
		}
		trs := benchTransfers(c.n, c.k)
		for _, sched := range benchSchedulers {
			cfg := Config{Nodes: c.k, PerCellTime: 1e-6, Scheduling: sched.s}
			b.Run(fmt.Sprintf("%s/nodes=%d", sched.name, c.k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := simulateReference(cfg, trs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimReuseSteadyState measures the zero-allocation contract: a
// reused Sim instance replaying the paper-scale greedy workload must not
// allocate once its buffers reach the workload's high-water mark
// (TestSimReuseZeroAllocs enforces it).
func BenchmarkSimReuseSteadyState(b *testing.B) {
	trs := benchTransfers(1024*11, 12)
	cfg := Config{Nodes: 12, PerCellTime: 1e-6}
	sim := &Sim{}
	if _, err := sim.Simulate(cfg, trs); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(cfg, trs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimReuseZeroAllocs is the gate on BenchmarkSimReuseSteadyState: the
// benchmark body, called not copied, must read 0 allocs/op on every core
// count.
func TestSimReuseZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res := testing.Benchmark(BenchmarkSimReuseSteadyState)
		runtime.GOMAXPROCS(prev)
		if res.N == 0 {
			t.Fatalf("GOMAXPROCS=%d: BenchmarkSimReuseSteadyState did not complete", procs)
		}
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("GOMAXPROCS=%d: BenchmarkSimReuseSteadyState = %d allocs/op, want 0", procs, a)
		}
	}
}
