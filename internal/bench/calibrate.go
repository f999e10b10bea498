package bench

import (
	"math/rand"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
)

// Calibrate derives the cost model's compute parameters (m, b, p of
// Section 5.1) empirically from this machine, timing the streaming joins
// the engine runs (join.RunStream), the way the paper derives them from
// the database's performance. The network parameter t cannot be measured
// on a single machine; it is set to keep the paper's regime — network
// transfer as the scarcest resource — at the measured compute speed
// (t = 20·m).
func Calibrate(cells int, seed int64) physical.CostParams {
	if cells <= 0 {
		cells = 200_000
	}
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, sorted bool) []join.Tuple {
		ts := make([]join.Tuple, n)
		for i := range ts {
			var k int64
			if sorted {
				k = int64(i * 2) // distinct, ordered, ~50% match rate
			} else {
				k = rng.Int63n(int64(n) * 2)
			}
			ts[i] = join.Tuple{Key: []array.Value{array.IntValue(k)}}
		}
		return ts
	}

	run := func(alg join.Algorithm, l, r []join.Tuple) (float64, join.Stats) {
		start := time.Now()
		// RunStream fails only on an unknown algorithm.
		st, _ := join.RunStream(alg, &join.SliceStream{Tuples: l}, &join.SliceStream{Tuples: r}, nil)
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
	t2, s2 := run(join.Hash, unsortedL[:1024], unsortedR)
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
