package simnet

import (
	"math/rand"
	"testing"
)

func init() {
	// Every Simulate run under test also asserts the Timeline's start
	// times are non-decreasing — the invariant that replaced the original
	// loop's final stable sort.
	debugCheckTimeline = true
}

// sameResult compares every field of two results exactly: the scheduler
// contract is bit-for-bit equality, not approximation, because both paths
// must perform the identical float operations in the identical order.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: Makespan = %v, want %v", label, got.Makespan, want.Makespan)
	}
	if got.LockWaits != want.LockWaits || got.SkippedSends != want.SkippedSends {
		t.Errorf("%s: LockWaits/SkippedSends = %d/%d, want %d/%d",
			label, got.LockWaits, got.SkippedSends, want.LockWaits, want.SkippedSends)
	}
	if got.LockWaitTime != want.LockWaitTime {
		t.Errorf("%s: LockWaitTime = %v, want %v", label, got.LockWaitTime, want.LockWaitTime)
	}
	vecsF := []struct {
		name     string
		got, ref []float64
	}{
		{"SendBusy", got.SendBusy, want.SendBusy},
		{"RecvBusy", got.RecvBusy, want.RecvBusy},
		{"RecvLockWait", got.RecvLockWait, want.RecvLockWait},
	}
	for _, v := range vecsF {
		if len(v.got) != len(v.ref) {
			t.Fatalf("%s: len(%s) = %d, want %d", label, v.name, len(v.got), len(v.ref))
		}
		for i := range v.got {
			if v.got[i] != v.ref[i] {
				t.Errorf("%s: %s[%d] = %v, want %v", label, v.name, i, v.got[i], v.ref[i])
			}
		}
	}
	vecsI := []struct {
		name     string
		got, ref []int64
	}{
		{"CellsSent", got.CellsSent, want.CellsSent},
		{"CellsRecv", got.CellsRecv, want.CellsRecv},
	}
	for _, v := range vecsI {
		if len(v.got) != len(v.ref) {
			t.Fatalf("%s: len(%s) = %d, want %d", label, v.name, len(v.got), len(v.ref))
		}
		for i := range v.got {
			if v.got[i] != v.ref[i] {
				t.Errorf("%s: %s[%d] = %v, want %v", label, v.name, i, v.got[i], v.ref[i])
			}
		}
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("%s: timeline has %d events, want %d", label, len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Errorf("%s: Timeline[%d] = %+v, want %+v", label, i, got.Timeline[i], want.Timeline[i])
		}
	}
}

// checkEquivalence runs one workload through the indexed scheduler (both
// the package entry point and a caller-supplied reused Sim) and the
// reference loop, requiring identical Results, the Timeline (which
// Simulate keeps in dispatch order) included.
func checkEquivalence(t *testing.T, label string, sim *Sim, cfg Config, trs []Transfer) {
	t.Helper()
	want, err := simulateReference(cfg, trs)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, err := Simulate(cfg, trs)
	if err != nil {
		t.Fatalf("%s: Simulate: %v", label, err)
	}
	sameResult(t, label, got, want)
	reused, err := sim.Simulate(cfg, trs)
	if err != nil {
		t.Fatalf("%s: reused Sim: %v", label, err)
	}
	sameResult(t, label+"/reused", reused, want)
}

// TestSimulateMatchesReference differentially checks the indexed scheduler
// against the original loop across both scheduling policies, degenerate
// cost parameters, and zero-cell/local transfers. One
// Sim instance is reused across every case (including shrinking and
// growing node counts) to exercise the buffer-reuse path.
func TestSimulateMatchesReference(t *testing.T) {
	sim := &Sim{}
	for _, sched := range []Scheduling{GreedyLocks, FIFONoSkip} {
		for _, perCell := range []float64{0, 0.01} {
			for _, nodes := range []int{1, 2, 3, 6, 13} {
				for _, count := range []int{0, 1, 7, 300} {
					rng := rand.New(rand.NewSource(int64(nodes*1000 + count)))
					trs := make([]Transfer, count)
					for i := range trs {
						trs[i] = Transfer{
							From:  rng.Intn(nodes),
							To:    rng.Intn(nodes),
							Cells: rng.Int63n(40), // zero-cell transfers included
							Tag:   i,
						}
					}
					label := benchLabel(sched, perCell, nodes, count)
					cfg := Config{Nodes: nodes, PerCellTime: perCell, Scheduling: sched}
					checkEquivalence(t, label, sim, cfg, trs)
				}
			}
		}
	}
}

func benchLabel(s Scheduling, perCell float64, nodes, count int) string {
	name := "greedy"
	if s == FIFONoSkip {
		name = "fifo"
	}
	return name + "/" +
		"t=" + fmtF(perCell) +
		"/k=" + itoa(nodes) + "/n=" + itoa(count)
}

func fmtF(f float64) string {
	if f == 0 {
		return "0"
	}
	return ">0"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSimulateFullScaleEquivalence is the paper-scale differential check:
// the exact workload BenchmarkSimulateFullScale measures must produce a
// bit-for-bit identical Result under both paths and both policies.
func TestSimulateFullScaleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale differential check is slow")
	}
	sim := &Sim{}
	for _, k := range []int{4, 12} {
		trs := benchTransfers(1024*(k-1), k)
		for _, sched := range []Scheduling{GreedyLocks, FIFONoSkip} {
			cfg := Config{Nodes: k, PerCellTime: 1e-6, Scheduling: sched}
			checkEquivalence(t, benchLabel(sched, 1e-6, k, len(trs)), sim, cfg, trs)
		}
	}
}

// TestResultClone verifies Clone detaches every backing array, so a
// retained Result survives the originating Sim's next run.
func TestResultClone(t *testing.T) {
	sim := &Sim{}
	cfg := Config{Nodes: 3, PerCellTime: 1}
	first, err := sim.Simulate(cfg, []Transfer{{From: 0, To: 1, Cells: 5}, {From: 2, To: 1, Cells: 3}})
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	want, _ := Simulate(cfg, []Transfer{{From: 0, To: 1, Cells: 5}, {From: 2, To: 1, Cells: 3}})
	// Clobber the Sim's buffers with a different workload.
	if _, err := sim.Simulate(Config{Nodes: 3, PerCellTime: 4}, []Transfer{{From: 1, To: 0, Cells: 9}}); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "clone", keep, want)
}

// TestZeroCellTransfersDropped pins the zero-cell transfer semantics: an
// empty remote slice carries nothing, so it is free and invisible — no
// Timeline event, no receiver lock.
func TestZeroCellTransfersDropped(t *testing.T) {
	zero := []Transfer{
		{From: 0, To: 2, Cells: 0, Tag: 0},
		{From: 1, To: 2, Cells: 10, Tag: 1},
	}
	res, err := Simulate(Config{Nodes: 3, PerCellTime: 1}, zero)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 1 || res.Makespan != 10 || res.SendBusy[0] != 0 {
		t.Errorf("zero-cell transfer should be dropped; timeline %d events, makespan %v, sender busy %v",
			len(res.Timeline), res.Makespan, res.SendBusy[0])
	}
}

// TestSimReuseAcrossShapes drives one Sim through node counts that grow,
// shrink, and grow again, checking against fresh runs each time: reused
// buffers must never leak state between runs.
func TestSimReuseAcrossShapes(t *testing.T) {
	sim := &Sim{}
	rng := rand.New(rand.NewSource(99))
	for iter, k := range []int{8, 2, 16, 3, 16, 1, 5} {
		n := rng.Intn(200)
		trs := make([]Transfer, n)
		for i := range trs {
			trs[i] = Transfer{From: rng.Intn(k), To: rng.Intn(k), Cells: rng.Int63n(50), Tag: i}
		}
		cfg := Config{Nodes: k, PerCellTime: 0.1, Scheduling: Scheduling(iter % 2)}
		got, err := sim.Simulate(cfg, trs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(cfg, trs)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "iter "+itoa(iter), got, want)
	}
}
