package simnet

import "testing"

// FuzzSimulateEquivalence differentially fuzzes the indexed scheduler
// against simulateReference: any byte string decodes into a (Config,
// []Transfer) workload, and the two paths must agree exactly on the
// Result — makespan, per-node busy/cells vectors, lock-wait attribution,
// skip/poll counters, and the Timeline, which Simulate keeps in dispatch
// order.
// The corpus seeds cover both scheduling policies, hot receivers, zero-cell transfers, and degenerate cost parameters; `go test
// -fuzz FuzzSimulateEquivalence ./internal/simnet` explores further.
func FuzzSimulateEquivalence(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01, 0x12, 0x05, 0x21, 0x00})       // greedy, hot receiver
	f.Add([]byte{0x13, 0x01, 0x12, 0x05, 0x21, 0x00})       // fifo, same workload
	f.Add([]byte{0x47, 0x01, 0x23, 0x00, 0x31, 0x07})       // zero-cell transfer
	f.Add([]byte{0x63, 0xff, 0x01, 0x02, 0x10, 0x20, 0x21}) // zero per-cell time
	f.Add([]byte{0x2c, 0x55, 0xaa, 0x31, 0x13, 0x07, 0x70, 0x0e, 0x41, 0x09, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Byte 0: low nibble-1 node count (1..8 via %8+1), bit 4 policy,
		// bit 6 zero per-cell time (bit 5 is unused).
		h := data[0]
		cfg := Config{
			Nodes:       int(h&0x0f)%8 + 1,
			PerCellTime: 0.25,
		}
		if h&0x10 != 0 {
			cfg.Scheduling = FIFONoSkip
		}
		if h&0x40 != 0 {
			cfg.PerCellTime = 0
		}
		// Remaining bytes: one transfer each. High nibble selects (from,
		// to) within the node range; low nibble is the cell count (0..14,
		// 15 → a large burst to force receiver contention).
		var trs []Transfer
		for i, b := range data[1:] {
			cells := int64(b & 0x0f)
			if cells == 15 {
				cells = 400
			}
			trs = append(trs, Transfer{
				From:  int(b>>4) % cfg.Nodes,
				To:    int(b>>6) % cfg.Nodes,
				Cells: cells,
				Tag:   i,
			})
		}
		want, err := simulateReference(cfg, trs)
		if err != nil {
			t.Fatalf("reference rejected fuzz workload: %v", err)
		}
		got, err := Simulate(cfg, trs)
		if err != nil {
			t.Fatalf("Simulate rejected fuzz workload: %v", err)
		}
		sameResultFuzz(t, got, want)
	})
}

// sameResultFuzz is sameResult for the fuzz driver (which only has a
// *testing.T at Fuzz time, so it reuses the exact-comparison helper).
func sameResultFuzz(t *testing.T, got, want Result) {
	t.Helper()
	sameResult(t, "fuzz", got, want)
}
