package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MaxSendRecv returns max over nodes of total send time and of total
// receive time: the quantities the analytical model uses for the alignment
// phase estimate max(s, r) · t (Equations 5–6 are expressed in cells; these
// are the same maxima in seconds), and so a lower bound on the makespan.
func (r Result) MaxSendRecv() (send, recv float64) {
	for i := range r.SendBusy {
		if r.SendBusy[i] > send {
			send = r.SendBusy[i]
		}
		if r.RecvBusy[i] > recv {
			recv = r.RecvBusy[i]
		}
	}
	return send, recv
}

func mustSim(t *testing.T, cfg Config, trs []Transfer) Result {
	t.Helper()
	res, err := Simulate(cfg, trs)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

func TestSimulateSingleTransfer(t *testing.T) {
	cfg := Config{Nodes: 2, PerCellTime: 0.5}
	res := mustSim(t, cfg, []Transfer{{From: 0, To: 1, Cells: 10}})
	if res.Makespan != 5 {
		t.Errorf("Makespan = %v, want 5", res.Makespan)
	}
	if res.CellsSent[0] != 10 || res.CellsRecv[1] != 10 {
		t.Errorf("cells: sent=%v recv=%v", res.CellsSent, res.CellsRecv)
	}
}

func TestSimulateLocalTransfersFree(t *testing.T) {
	cfg := Config{Nodes: 2, PerCellTime: 1}
	res := mustSim(t, cfg, []Transfer{{From: 0, To: 0, Cells: 1000}})
	if res.Makespan != 0 {
		t.Errorf("local transfer should cost nothing, got %v", res.Makespan)
	}
	if len(res.Timeline) != 0 {
		t.Error("local transfer should not appear in timeline")
	}
}

func TestReceiverSerializes(t *testing.T) {
	// Two senders to the same receiver: the write lock serializes them.
	cfg := Config{Nodes: 3, PerCellTime: 1}
	res := mustSim(t, cfg, []Transfer{
		{From: 0, To: 2, Cells: 10},
		{From: 1, To: 2, Cells: 10},
	})
	if res.Makespan != 20 {
		t.Errorf("Makespan = %v, want 20 (serialized)", res.Makespan)
	}
}

func TestFullDuplexParallelism(t *testing.T) {
	// Disjoint pairs run fully in parallel.
	cfg := Config{Nodes: 4, PerCellTime: 1}
	res := mustSim(t, cfg, []Transfer{
		{From: 0, To: 1, Cells: 10},
		{From: 2, To: 3, Cells: 10},
	})
	if res.Makespan != 10 {
		t.Errorf("Makespan = %v, want 10 (parallel)", res.Makespan)
	}
}

func TestSendAndReceiveSimultaneously(t *testing.T) {
	// A node can send while receiving (full duplex): 0->1 and 1->0 overlap.
	cfg := Config{Nodes: 2, PerCellTime: 1}
	res := mustSim(t, cfg, []Transfer{
		{From: 0, To: 1, Cells: 10},
		{From: 1, To: 0, Cells: 10},
	})
	if res.Makespan != 10 {
		t.Errorf("Makespan = %v, want 10 (full duplex)", res.Makespan)
	}
}

func TestGreedySkipsLockedDestination(t *testing.T) {
	// Sender 0 queues [->2 big, ->3 small]; sender 1 grabs 2 first.
	// Greedy lets sender 0 skip to node 3 instead of waiting.
	cfg := Config{Nodes: 4, PerCellTime: 1, Scheduling: GreedyLocks}
	res := mustSim(t, cfg, []Transfer{
		{From: 1, To: 2, Cells: 100},
		{From: 0, To: 2, Cells: 10},
		{From: 0, To: 3, Cells: 10},
	})
	// Greedy: at t=0 node1 starts ->2 (lock 2 until 100). Node 0 skips its
	// ->2 head and sends ->3 during [0,10], then ->2 during [100,110].
	if res.Makespan != 110 {
		t.Errorf("Makespan = %v, want 110", res.Makespan)
	}
	if res.SkippedSends == 0 {
		t.Error("expected at least one skipped send")
	}

	// FIFO: node 0 waits for lock 2: ->2 during [100,110], ->3 during [110,120].
	cfg.Scheduling = FIFONoSkip
	resF := mustSim(t, cfg, []Transfer{
		{From: 1, To: 2, Cells: 100},
		{From: 0, To: 2, Cells: 10},
		{From: 0, To: 3, Cells: 10},
	})
	if resF.Makespan != 120 {
		t.Errorf("FIFO Makespan = %v, want 120", resF.Makespan)
	}
	if resF.Makespan <= res.Makespan {
		t.Error("greedy scheduling should beat FIFO here")
	}
}

func TestPollWhenAllLocked(t *testing.T) {
	// Sender 0's only destination is locked by a longer transfer: it polls.
	cfg := Config{Nodes: 3, PerCellTime: 1}
	res := mustSim(t, cfg, []Transfer{
		{From: 1, To: 2, Cells: 50},
		{From: 0, To: 2, Cells: 5},
	})
	if res.Makespan != 55 {
		t.Errorf("Makespan = %v, want 55", res.Makespan)
	}
	if res.LockWaits == 0 {
		t.Error("expected a lock wait (poll)")
	}
	// Sender 0 is free at t=0 but node 2's lock releases at t=50: 50s of
	// wait attributed to receiver 2, none elsewhere.
	if res.RecvLockWait[2] != 50 {
		t.Errorf("RecvLockWait[2] = %v, want 50", res.RecvLockWait[2])
	}
	if res.RecvLockWait[0] != 0 || res.RecvLockWait[1] != 0 {
		t.Errorf("wait misattributed: %v", res.RecvLockWait)
	}
	if res.LockWaitTime != 50 {
		t.Errorf("LockWaitTime = %v, want 50", res.LockWaitTime)
	}
}

// Property: LockWaitTime is always the sum of the per-receiver waits, and
// zero whenever no poll occurred.
func TestLockWaitAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var trs []Transfer
	for i := 0; i < 150; i++ {
		trs = append(trs, Transfer{From: rng.Intn(4), To: rng.Intn(4), Cells: rng.Int63n(80) + 1, Tag: i})
	}
	res := mustSim(t, Config{Nodes: 4, PerCellTime: 0.01}, trs)
	var sum float64
	for _, w := range res.RecvLockWait {
		if w < 0 {
			t.Fatalf("negative lock wait: %v", res.RecvLockWait)
		}
		sum += w
	}
	if math.Abs(sum-res.LockWaitTime) > 1e-12 {
		t.Errorf("LockWaitTime %v != Σ RecvLockWait %v", res.LockWaitTime, sum)
	}
	if res.LockWaits == 0 && res.LockWaitTime != 0 {
		t.Error("wait time recorded without any poll")
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	if _, err := Simulate(Config{Nodes: 0, PerCellTime: 1}, nil); err == nil {
		t.Error("zero nodes should be rejected")
	}
	if _, err := Simulate(Config{Nodes: 2, PerCellTime: 1}, []Transfer{{From: 0, To: 5, Cells: 1}}); err == nil {
		t.Error("out-of-range node should be rejected")
	}
	if _, err := Simulate(Config{Nodes: 2, PerCellTime: 1}, []Transfer{{From: 0, To: 1, Cells: -1}}); err == nil {
		t.Error("negative size should be rejected")
	}
	if _, err := Simulate(Config{Nodes: 2, PerCellTime: -1}, nil); err == nil {
		t.Error("negative per-cell time should be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var trs []Transfer
	for i := 0; i < 200; i++ {
		trs = append(trs, Transfer{From: rng.Intn(6), To: rng.Intn(6), Cells: rng.Int63n(100) + 1, Tag: i})
	}
	cfg := Config{Nodes: 6, PerCellTime: 0.01}
	a := mustSim(t, cfg, trs)
	b := mustSim(t, cfg, trs)
	if a.Makespan != b.Makespan || a.LockWaits != b.LockWaits || len(a.Timeline) != len(b.Timeline) {
		t.Error("simulation not deterministic")
	}
}

// Property: makespan is at least the per-node busy-time lower bound and at
// most the fully serialized sum.
func TestMakespanBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(6) + 2
		n := rng.Intn(40) + 1
		var trs []Transfer
		var totalTime float64
		cfg := Config{Nodes: k, PerCellTime: 0.1}
		for i := 0; i < n; i++ {
			tr := Transfer{From: rng.Intn(k), To: rng.Intn(k), Cells: rng.Int63n(50)}
			if tr.From != tr.To {
				totalTime += float64(tr.Cells) * cfg.PerCellTime
			}
			trs = append(trs, tr)
		}
		res, err := Simulate(cfg, trs)
		if err != nil {
			return false
		}
		send, recv := res.MaxSendRecv()
		lower := math.Max(send, recv)
		return res.Makespan >= lower-1e-9 && res.Makespan <= totalTime+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the timeline never has two transfers overlapping on the same
// sender NIC or the same receiver lock.
func TestNoOverlapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(5) + 2
		var trs []Transfer
		for i := 0; i < 60; i++ {
			trs = append(trs, Transfer{From: rng.Intn(k), To: rng.Intn(k), Cells: rng.Int63n(30) + 1})
		}
		res, err := Simulate(Config{Nodes: k, PerCellTime: 0.05}, trs)
		if err != nil {
			return false
		}
		for i, a := range res.Timeline {
			for _, b := range res.Timeline[i+1:] {
				overlap := a.Start < b.End-1e-12 && b.Start < a.End-1e-12
				if overlap && (a.Transfer.From == b.Transfer.From || a.Transfer.To == b.Transfer.To) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
