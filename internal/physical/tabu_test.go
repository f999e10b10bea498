package physical

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"shufflejoin/internal/join"
)

// oracleWhatIf is the O(k) what-if the top-3 caches replaced: Equation 8
// recomputed over every node, with from and to swapped for their moved
// values. It reads only the accumulators.
func oracleWhatIf(ev *evaluator, i, from, to int) float64 {
	pr := ev.pr
	sendFrom := ev.send[from] + pr.Sizes[i][from]
	sendTo := ev.send[to] - pr.Sizes[i][to]
	recvFrom := ev.recv[from] - (pr.UnitTotal[i] - pr.Sizes[i][from])
	recvTo := ev.recv[to] + (pr.UnitTotal[i] - pr.Sizes[i][to])
	compFrom := ev.comp[from] - pr.Comp[i]
	compTo := ev.comp[to] + pr.Comp[i]
	var move int64
	var maxComp float64
	for j := 0; j < pr.K; j++ {
		s, r, c := ev.send[j], ev.recv[j], ev.comp[j]
		if j == from {
			s, r, c = sendFrom, recvFrom, compFrom
		} else if j == to {
			s, r, c = sendTo, recvTo, compTo
		}
		if s > move {
			move = s
		}
		if r > move {
			move = r
		}
		if c > maxComp {
			maxComp = c
		}
	}
	return float64(move)*pr.Params.Transfer + maxComp
}

// oracleTabu is Algorithm 2 searched sequentially with oracleWhatIf: the
// same rounds, candidates and (cost, unit, node) tie-break as
// TabuPlanner, so any what-if that differs by one bit shows up as a
// different trajectory.
func oracleTabu(pr *Problem, maxRounds int) (Assignment, SearchStats) {
	a := CenterOfGravity(pr)
	tabu := make([]bool, pr.N*pr.K)
	for i, j := range a {
		tabu[i*pr.K+j] = true
	}
	ev := newEvaluator(pr, a)
	var stats SearchStats
	costs := make([]float64, pr.K)
	for maxRounds <= 0 || stats.TabuRounds < maxRounds {
		stats.TabuRounds++
		changed := false
		ev.nodeCosts(costs)
		mean := 0.0
		for _, c := range costs {
			mean += c
		}
		mean /= float64(pr.K)
		for n := 0; n < pr.K; n++ {
			if costs[n] <= mean {
				continue
			}
			improved := false
			for {
				none := tabuMove{cost: ev.total(), unit: -1}
				win := none
				for i := 0; i < pr.N; i++ {
					if a[i] != n {
						continue
					}
					for j := 0; j < pr.K; j++ {
						if j == n || tabu[i*pr.K+j] {
							continue
						}
						stats.TabuWhatIfs++
						m := tabuMove{cost: oracleWhatIf(ev, i, n, j), unit: i, node: j}
						if m.cost < none.cost && m.better(win) {
							win = m
						}
					}
				}
				if win.unit < 0 {
					break
				}
				ev.move(win.unit, n, win.node)
				a[win.unit] = win.node
				tabu[win.unit*pr.K+win.node] = true
				stats.TabuMoves++
				improved = true
			}
			if improved {
				changed = true
				ev.nodeCosts(costs)
			}
		}
		if !changed {
			break
		}
	}
	return a, stats
}

// tiedProblem draws every slice size from {0, 10, 20}, so per-node loads
// tie often and the top-3 caches hold equal values on different nodes.
func tiedProblem(rng *rand.Rand, n, k int, algo join.Algorithm) *Problem {
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := range left {
		left[i] = make([]int64, k)
		right[i] = make([]int64, k)
		for j := 0; j < k; j++ {
			left[i][j] = 10 * rng.Int63n(3)
			right[i][j] = 10 * rng.Int63n(3)
		}
	}
	pr, _ := NewProblem(k, algo, left, right, DefaultParams())
	return pr
}

// TestWhatIfMatchesMoveThenTotal: every what-if equals, bit for bit, the
// total after applying the move to a clone of the live evaluator's
// accumulators, and equals the O(k) oracle; what-ifs interleave with
// applied moves so the caches are checked after every rebuild. The clone
// matters: incremental comp sums drift by ulps from a fresh accumulate.
func TestWhatIfMatchesMoveThenTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range []int{2, 3, 4, 32} {
		for _, algo := range []join.Algorithm{join.Hash, join.Merge} {
			for trial := 0; trial < 20; trial++ {
				pr := tiedProblem(rng, 1+rng.Intn(40), k, algo)
				a := make(Assignment, pr.N)
				for i := range a {
					a[i] = rng.Intn(k)
				}
				ev := newEvaluator(pr, a)
				for step := 0; step < 200; step++ {
					i := rng.Intn(pr.N)
					from, to := a[i], rng.Intn(k-1)
					if to >= from {
						to++
					}
					got := ev.whatIf(i, from, to)
					clone := &evaluator{pr: pr, send: slices.Clone(ev.send), recv: slices.Clone(ev.recv), comp: slices.Clone(ev.comp)}
					clone.move(i, from, to)
					if want := clone.total(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d %v trial %d step %d: whatIf(%d, %d, %d) = %v, move+total = %v",
							k, algo, trial, step, i, from, to, got, want)
					}
					if want := oracleWhatIf(ev, i, from, to); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d %v trial %d step %d: whatIf(%d, %d, %d) = %v, oracle = %v",
							k, algo, trial, step, i, from, to, got, want)
					}
					if rng.Intn(2) == 0 {
						ev.move(i, from, to)
						a[i] = to
					}
				}
			}
		}
	}
}

// TestTabuMatchesOracleSearch: the planners built on the O(1) what-if
// return the same assignment, model and search counters as the search run
// with the O(k) oracle, sequentially and sharded. Every 40th problem is
// large enough (400 units on 32 nodes) for Workers: 4 to shard the scan.
func TestTabuMatchesOracleSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		k := []int{2, 3, 4, 8, 32}[trial%5]
		algo := []join.Algorithm{join.Hash, join.Merge}[trial/5%2]
		n := 2 + rng.Intn(100)
		if trial%40 == 4 {
			n = 400
		}
		var pr *Problem
		if trial%3 == 0 {
			pr = tiedProblem(rng, n, k, algo)
		} else {
			pr = randProblem(rng, n, k, algo)
		}
		full, fullStats := oracleTabu(pr, 0)
		sweep, sweepStats := oracleTabu(pr, 1)
		for _, c := range []struct {
			planner Planner
			a       Assignment
			stats   SearchStats
		}{
			{TabuPlanner{}, full, fullStats},
			{TabuPlanner{Workers: 4}, full, fullStats},
			{GreedyPlanner{}, sweep, sweepStats},
		} {
			res, err := c.planner.Plan(pr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Assignment, c.a) || res.Model != pr.Evaluate(c.a) || res.Search != c.stats {
				t.Fatalf("trial %d (n=%d k=%d %v) %s %+v: got %v %+v, oracle %v %+v",
					trial, pr.N, k, algo, c.planner.Name(), c.planner, res.Assignment, res.Search, c.a, c.stats)
			}
		}
	}
}

// TestTabuRoundsCountsRoundsRun: a capped search reports the rounds it
// ran, never MaxRounds + 1, including GreedyPlanner's single sweep.
func TestTabuRoundsCountsRoundsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	capped := 0
	for trial := 0; trial < 50; trial++ {
		pr := randProblem(rng, 20+rng.Intn(60), 2+rng.Intn(6), join.Hash)
		for _, rounds := range []int{1, 2, 3} {
			res, err := TabuPlanner{MaxRounds: rounds}.Plan(pr)
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Search.TabuRounds; r < 1 || r > rounds {
				t.Fatalf("trial %d: MaxRounds %d reported %d rounds", trial, rounds, r)
			}
			if res.Search.TabuRounds == rounds && res.Search.TabuMoves > 0 {
				capped++
			}
		}
		g, err := GreedyPlanner{}.Plan(pr)
		if err != nil {
			t.Fatal(err)
		}
		if g.Search.TabuRounds != 1 {
			t.Fatalf("trial %d: Greedy reported %d rounds, want 1", trial, g.Search.TabuRounds)
		}
	}
	if capped == 0 {
		t.Fatal("no trial reached its round cap with a move; the cap went untested")
	}
}
