package bench

import (
	"math/rand"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
)

// Calibrate derives the cost model's compute parameters (m, b, p of
// Section 5.1) empirically from this machine, timing the columnar join
// kernels the engine runs (join.RunColumns over one-span sides, match
// lists included), the way the paper derives them from
// the database's performance. The network parameter t cannot be measured
// on a single machine; it is set to keep the paper's regime — network
// transfer as the scarcest resource — at the measured compute speed
// (t = 20·m).
func Calibrate(cells int, seed int64) physical.CostParams {
	if cells <= 0 {
		cells = 200_000
	}
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, sorted bool) batch.Run {
		keys := make([]int64, n)
		for i := range keys {
			if sorted {
				keys[i] = int64(i * 2) // distinct, ordered, ~50% match rate
			} else {
				keys[i] = rng.Int63n(int64(n) * 2)
			}
		}
		b := &batch.Batch{Cols: []batch.Col{{Type: array.TypeInt64, Ints: keys}}}
		return batch.Run{Store: b, Hi: n}
	}
	prefix := func(side batch.Run, n int) batch.Run {
		return batch.Run{Store: side.Store, Hi: n}
	}

	var matches join.Matches
	run := func(alg join.Algorithm, l, r batch.Run) (float64, join.Stats) {
		start := time.Now()
		// RunColumns fails only on an unknown algorithm.
		st, _ := join.RunColumns(alg, l, r, 1, nil, &matches)
		return time.Since(start).Seconds(), st
	}

	// m: merge cursor steps per second over sorted sides.
	mt, mst := run(join.Merge, mk(cells, true), mk(cells, true))
	m := mt / float64(mst.MergeSteps+mst.Matches+1)

	// b and p: the engine's hash join always builds on the smaller side,
	// so build cost cannot be timed alone. Two joins, N×N and 1024×N,
	// give two equations t = b·builds + p·probes in the two unknowns.
	unsortedL, unsortedR := mk(cells, false), mk(cells, false)
	t1, s1 := run(join.Hash, unsortedL, unsortedR)
	t2, s2 := run(join.Hash, prefix(unsortedL, 1024), unsortedR)
	det := float64(s1.BuildOps*s2.ProbeOps - s2.BuildOps*s1.ProbeOps)
	b := (t1*float64(s2.ProbeOps) - t2*float64(s1.ProbeOps)) / det
	p := (t2*float64(s1.BuildOps) - t1*float64(s2.BuildOps)) / det

	// Guard rails: keep the paper's orderings (b > p, m between them)
	// even on noisy machines, where the two-equation solve can go
	// non-positive.
	if p <= 0 {
		p = m / 2
	}
	if b < 2*p {
		b = 2 * p
	}
	return physical.CostParams{
		Merge:    m,
		Build:    b,
		Probe:    p,
		Transfer: 20 * m,
	}
}
