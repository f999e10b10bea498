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

// oracleMayLower is rebalanceNode's bound from first principles, over
// every node rather than the top-3 caches: a move of unit i from n to j
// may lower the plan's cost only if it may lower the largest
// max(send, recv) (every node at it is n or j, and n's send and receive
// after the move are both below it) or the largest comparison time (every
// node at it is n or j). With a negative or NaN Transfer every move may.
func oracleMayLower(ev *evaluator, i, n, j int) bool {
	pr := ev.pr
	if !(pr.Params.Transfer >= 0) {
		return true
	}
	maxMove, maxComp := oracleMaxima(ev)
	moveOK, compOK := true, true
	for h := 0; h < pr.K; h++ {
		if h == n || h == j {
			continue
		}
		if max(ev.send[h], ev.recv[h]) == maxMove {
			moveOK = false
		}
		if ev.comp[h] == maxComp {
			compOK = false
		}
	}
	moveOK = moveOK &&
		ev.send[n]+pr.Sizes[i][n] < maxMove &&
		ev.recv[n]-(pr.UnitTotal[i]-pr.Sizes[i][n]) < maxMove
	return moveOK || compOK
}

// oracleMaxima returns the largest max(send, recv) and comparison time
// over the nodes.
func oracleMaxima(ev *evaluator) (maxMove int64, maxComp float64) {
	maxMove, maxComp = max(ev.send[0], ev.recv[0]), ev.comp[0]
	for h := 1; h < ev.pr.K; h++ {
		maxMove, maxComp = max(maxMove, ev.send[h], ev.recv[h]), max(maxComp, ev.comp[h])
	}
	return maxMove, maxComp
}

// oracleTabu is Algorithm 2 searched sequentially with oracleWhatIf over
// every candidate: the same rounds, candidates and (cost, unit, node)
// tie-break as TabuPlanner, so any what-if that differs by one bit, or a
// bound that skips a move that would have won, shows up as a different
// trajectory. TabuWhatIfs counts the candidates oracleMayLower keeps;
// skipped, when set, sees each one it does not, before the step's move.
func oracleTabu(pr *Problem, maxRounds int, skipped func(ev *evaluator, i, n, j int)) (Assignment, SearchStats) {
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
						if oracleMayLower(ev, i, n, j) {
							stats.TabuWhatIfs++
						} else if skipped != nil {
							skipped(ev, i, n, j)
						}
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

// evenProblem gives every unit 20 cells a side, dealt in tens to random
// nodes, so every unit has the same comparison cost and several nodes
// often tie at the largest comparison time.
func evenProblem(rng *rand.Rand, n, k int, algo join.Algorithm) *Problem {
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := range left {
		left[i] = make([]int64, k)
		right[i] = make([]int64, k)
		for c := 0; c < 2; c++ {
			left[i][rng.Intn(k)] += 10
			right[i][rng.Intn(k)] += 10
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
// and the bounded scan return the same assignment, model and search
// counters as the full search run with the O(k) oracle; their what-ifs
// are the oracle's candidates under the bound. Every 40th problem has
// wide_plan's size, 400 units on 32 nodes.
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
		switch trial % 3 {
		case 0:
			pr = tiedProblem(rng, n, k, algo)
		case 1:
			pr = randProblem(rng, n, k, algo)
		default:
			pr = evenProblem(rng, n, k, algo)
		}
		full, fullStats := oracleTabu(pr, 0, nil)
		sweep, sweepStats := oracleTabu(pr, 1, nil)
		for _, c := range []struct {
			planner Planner
			a       Assignment
			stats   SearchStats
		}{
			{TabuPlanner{}, full, fullStats},
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

// TestTabuPruneIsExact: at every step of a search, every candidate the
// bound skips costs, by the O(k) oracle, at least the current plan, so
// rebalanceNode would have rejected it. The float comparison is exact. The
// search states must include 1, 2, 3 and 4 nodes tied at the largest
// max(send, recv) and at the largest comparison time with a move skipped.
func TestTabuPruneIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var tiedMove, tiedComp [5]int
	skips := 0
	for trial := 0; trial < 200; trial++ {
		k := []int{2, 3, 4, 8, 32}[trial%5]
		algo := []join.Algorithm{join.Hash, join.Merge}[trial/5%2]
		n := 2 + rng.Intn(100)
		var pr *Problem
		switch trial % 3 {
		case 0:
			pr = tiedProblem(rng, n, k, algo)
		case 1:
			pr = randProblem(rng, n, k, algo)
		default:
			pr = evenProblem(rng, n, k, algo)
		}
		oracleTabu(pr, 0, func(ev *evaluator, i, from, to int) {
			skips++
			if got, cur := oracleWhatIf(ev, i, from, to), ev.total(); got < cur {
				t.Fatalf("trial %d (n=%d k=%d %v): skipped moving unit %d from %d to %d, which costs %v < %v",
					trial, pr.N, k, algo, i, from, to, got, cur)
			}
			maxMove, maxComp := oracleMaxima(ev)
			var m, c int
			for h := 0; h < pr.K; h++ {
				if max(ev.send[h], ev.recv[h]) == maxMove {
					m++
				}
				if ev.comp[h] == maxComp {
					c++
				}
			}
			tiedMove[min(m, 4)]++
			tiedComp[min(c, 4)]++
		})
	}
	t.Logf("%d skips; nodes tied at the largest alignment %v, comparison %v", skips, tiedMove[1:], tiedComp[1:])
	for ties := 1; ties <= 4; ties++ {
		if tiedMove[ties] == 0 || tiedComp[ties] == 0 {
			t.Errorf("no skip with %d nodes tied (alignment %v, comparison %v)", ties, tiedMove[1:], tiedComp[1:])
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
