package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// simReuse returns the recurring work of a warm engine's Align stage: a
// reused Sim replaying the paper-scale greedy workload, its buffers
// already at the workload's high-water mark.
func simReuse(tb testing.TB) func() {
	trs := benchTransfers(1024*11, 12)
	cfg := Config{Nodes: 12, PerCellTime: 1e-6}
	sim := &Sim{}
	replay := func() {
		if _, err := sim.Simulate(cfg, trs); err != nil {
			tb.Fatal(err)
		}
	}
	replay() // warm the buffers
	return replay
}

// BenchmarkSimReuseSteadyState measures the zero-allocation contract: a
// reused Sim instance replaying the paper-scale greedy workload must not
// allocate once its buffers reach the workload's high-water mark
// (TestSimReuseZeroAllocs enforces it).
func BenchmarkSimReuseSteadyState(b *testing.B) {
	replay := simReuse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}

// allocSink keeps the gate's injected allocation on the heap.
var allocSink []byte

// allocsPerRun counts the heap allocations of n calls of f with
// runtime.ReadMemStats. The caller turns the collector off.
func allocsPerRun(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSimReuseZeroAllocs is the gate on BenchmarkSimReuseSteadyState's
// body: a fixed number of replays on the warm Sim allocate nothing, at
// every core count. The collector is off while counting, and the least
// of three counts is held to 0, since the runtime can allocate a few
// objects of its own during a count now and then, where the replay
// would allocate in every one. The counter is checked too: the same
// replays with one allocation injected each must read at least one per
// replay.
func TestSimReuseZeroAllocs(t *testing.T) {
	const replays = 10
	replay := simReuse(t)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		replay() // the first replay on new Ps
		got := allocsPerRun(replays, replay)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, allocsPerRun(replays, replay))
		}
		injected := allocsPerRun(replays, func() {
			replay()
			allocSink = make([]byte, 64)
		})
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		if got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d replays on a warm Sim made %d allocations, want 0", procs, replays, got)
		}
		if injected < replays {
			t.Errorf("GOMAXPROCS=%d: %d replays with an injected allocation each counted %d allocations, want at least %d", procs, replays, injected, replays)
		}
	}
}
