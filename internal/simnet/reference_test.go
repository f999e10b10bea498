package simnet

import "sort"

// simulateReference is the original O(T·N·Q) dispatch loop, kept verbatim
// (plus the zero-cell rule) as the semantic reference for the
// indexed scheduler in sim.go: every dispatch rescans all sender queues
// for the globally earliest feasible (sender, transfer) start, splices the
// dispatched transfer out of its queue, and stable-sorts the Timeline at
// the end. The differential tests (equivalence_test.go, fuzz_test.go) and
// the full-scale benchmark guard require Simulate to reproduce its Result
// bit for bit.
func simulateReference(cfg Config, transfers []Transfer) (Result, error) {
	if err := cfg.Validate(transfers); err != nil {
		return Result{}, err
	}
	res := Result{
		SendBusy:     make([]float64, cfg.Nodes),
		RecvBusy:     make([]float64, cfg.Nodes),
		CellsSent:    make([]int64, cfg.Nodes),
		CellsRecv:    make([]int64, cfg.Nodes),
		RecvLockWait: make([]float64, cfg.Nodes),
	}

	// Build per-sender queues preserving input order. seq records each
	// transfer's global input position, used to break start-time ties
	// deterministically.
	queues := make([][]queued, cfg.Nodes)
	remaining := 0
	for n, tr := range transfers {
		if tr.From == tr.To || tr.Cells == 0 {
			continue // local or empty: no network work
		}
		queues[tr.From] = append(queues[tr.From], queued{Transfer: tr, seq: n})
		remaining++
	}

	senderFree := make([]float64, cfg.Nodes) // when each NIC may transmit again
	recvFree := make([]float64, cfg.Nodes)   // when each receiver's write lock frees

	for remaining > 0 {
		// Choose the globally earliest feasible (sender, transfer) start,
		// breaking ties by the transfer's position in the input.
		bestSender, bestIdx, bestSeq := -1, -1, 0
		bestStart := 0.0
		bestPolled := false
		for i := 0; i < cfg.Nodes; i++ {
			q := queues[i]
			if len(q) == 0 {
				continue
			}
			idx, start, polled := nextForSender(cfg.Scheduling, q, senderFree[i], recvFree)
			seq := q[idx].seq
			if bestSender == -1 || start < bestStart || (start == bestStart && seq < bestSeq) {
				bestSender, bestIdx, bestSeq, bestStart, bestPolled = i, idx, seq, start, polled
			}
		}
		tr := queues[bestSender][bestIdx].Transfer
		if bestPolled {
			res.LockWaits++
			if wait := bestStart - senderFree[bestSender]; wait > 0 {
				res.RecvLockWait[tr.To] += wait
				res.LockWaitTime += wait
			}
		}
		if bestIdx > 0 {
			res.SkippedSends++
		}
		dur := float64(tr.Cells) * cfg.PerCellTime
		end := bestStart + dur
		senderFree[bestSender] = end
		recvFree[tr.To] = end
		res.SendBusy[tr.From] += dur
		res.RecvBusy[tr.To] += dur
		res.CellsSent[tr.From] += tr.Cells
		res.CellsRecv[tr.To] += tr.Cells
		if end > res.Makespan {
			res.Makespan = end
		}
		res.Timeline = append(res.Timeline, Event{Transfer: tr, Start: bestStart, End: end})
		// Remove the dispatched transfer, preserving order.
		queues[bestSender] = append(queues[bestSender][:bestIdx], queues[bestSender][bestIdx+1:]...)
		remaining--
	}
	sort.SliceStable(res.Timeline, func(i, j int) bool { return res.Timeline[i].Start < res.Timeline[j].Start })
	return res, nil
}

// queued is a Transfer annotated with its global input position.
type queued struct {
	Transfer
	seq int
}

// nextForSender picks which queued transfer the sender dispatches next and
// when it can start. With GreedyLocks it takes the first transfer whose
// destination lock is free when the sender is ready; if none, it polls
// until the earliest needed lock releases. With FIFONoSkip it always takes
// the head of the queue.
func nextForSender(s Scheduling, q []queued, senderReady float64, recvFree []float64) (idx int, start float64, polled bool) {
	if s == FIFONoSkip {
		head := q[0]
		start = senderReady
		if recvFree[head.To] > start {
			start = recvFree[head.To]
		}
		return 0, start, recvFree[head.To] > senderReady
	}
	// GreedyLocks: first destination free at senderReady wins.
	for i, tr := range q {
		if recvFree[tr.To] <= senderReady {
			return i, senderReady, false
		}
	}
	// All destinations locked: poll for the earliest release.
	bestIdx, bestAt := 0, recvFree[q[0].To]
	for i := 1; i < len(q); i++ {
		if at := recvFree[q[i].To]; at < bestAt {
			bestIdx, bestAt = i, at
		}
	}
	return bestIdx, bestAt, true
}
