package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func solve(t *testing.T, p *Problem, budget time.Duration) Solution {
	t.Helper()
	sol, err := SolveOpts(p, Options{Budget: budget})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

// bruteForce enumerates every assignment (tiny instances only).
func bruteForce(p *Problem) float64 {
	n := len(p.Sizes)
	assign := make([]int, n)
	best := math.Inf(1)
	var rec func(d int)
	rec = func(d int) {
		if d == n {
			if obj := evaluate(p, assign); obj < best {
				best = obj
			}
			return
		}
		for j := 0; j < p.K; j++ {
			assign[d] = j
			rec(d + 1)
		}
	}
	rec(0)
	return best
}

// evaluate recomputes the objective d + g independently of the solver.
func evaluate(p *Problem, assign []int) float64 {
	send := make([]int64, p.K)
	recv := make([]int64, p.K)
	comp := make([]float64, p.K)
	for i, row := range p.Sizes {
		a := assign[i]
		comp[a] += p.Comp[i]
		for j, s := range row {
			if j == a {
				continue
			}
			send[j] += s
			recv[a] += s
		}
	}
	var mv int64
	var mc float64
	for j := 0; j < p.K; j++ {
		if send[j] > mv {
			mv = send[j]
		}
		if recv[j] > mv {
			mv = recv[j]
		}
		if comp[j] > mc {
			mc = comp[j]
		}
	}
	return float64(mv)*p.Transfer + mc
}

func randomProblem(rng *rand.Rand, n, k int) *Problem {
	p := &Problem{K: k, Transfer: 0.5}
	for i := 0; i < n; i++ {
		row := make([]int64, k)
		for j := range row {
			row[j] = rng.Int63n(40)
		}
		p.Sizes = append(p.Sizes, row)
		p.Comp = append(p.Comp, float64(rng.Intn(30)))
	}
	return p
}

func TestSolveEmpty(t *testing.T) {
	sol := solve(t, &Problem{K: 3, Transfer: 1}, time.Second)
	if !sol.Optimal || sol.Objective != 0 {
		t.Errorf("empty problem: %+v", sol)
	}
}

func TestSolveSingleUnitStaysHome(t *testing.T) {
	// One unit entirely on node 1: assigning it there moves nothing.
	p := &Problem{
		K:        3,
		Sizes:    [][]int64{{0, 100, 0}},
		Comp:     []float64{5},
		Transfer: 1,
	}
	sol := solve(t, p, time.Second)
	if sol.Assignment[0] != 1 {
		t.Errorf("assigned to %d, want 1", sol.Assignment[0])
	}
	if sol.Objective != 5 { // no movement, comp 5
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
	if !sol.Optimal {
		t.Error("tiny instance should be solved to optimality")
	}
}

func TestSolveBalancesComparison(t *testing.T) {
	// Two equal units on node 0, zero transfer cost: spread them.
	p := &Problem{
		K:        2,
		Sizes:    [][]int64{{50, 0}, {50, 0}},
		Comp:     []float64{10, 10},
		Transfer: 0,
	}
	sol := solve(t, p, time.Second)
	if sol.Assignment[0] == sol.Assignment[1] {
		t.Error("with free transfer, units should spread across nodes")
	}
	if sol.Objective != 10 {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

func TestSolveTradesTransferForBalance(t *testing.T) {
	// With very expensive transfer the solver keeps both units home even
	// though that doubles the comparison load on node 0.
	p := &Problem{
		K:        2,
		Sizes:    [][]int64{{50, 0}, {50, 0}},
		Comp:     []float64{10, 10},
		Transfer: 1000,
	}
	sol := solve(t, p, time.Second)
	if sol.Assignment[0] != 0 || sol.Assignment[1] != 0 {
		t.Errorf("assignments = %v, want both on node 0", sol.Assignment)
	}
	if sol.Objective != 20 {
		t.Errorf("objective = %v, want 20", sol.Objective)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, rng.Intn(5)+2, rng.Intn(2)+2)
		sol, err := SolveOpts(p, Options{Budget: 5 * time.Second})
		if err != nil || !sol.Optimal {
			return false
		}
		want := bruteForce(p)
		return math.Abs(sol.Objective-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveObjectiveConsistent(t *testing.T) {
	// The reported objective must equal an independent evaluation of the
	// returned assignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, rng.Intn(10)+2, rng.Intn(3)+2)
		sol, err := SolveOpts(p, Options{Budget: time.Second})
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-evaluate(p, sol.Assignment)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveAnytimeUnderTightBudget(t *testing.T) {
	// A large instance under a microscopic budget must still return a
	// complete (possibly suboptimal) assignment — the anytime behaviour the
	// experiments rely on.
	rng := rand.New(rand.NewSource(42))
	p := randomProblem(rng, 200, 6)
	sol, err := SolveOpts(p, Options{Budget: time.Millisecond})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(sol.Assignment) != 200 {
		t.Fatalf("incomplete assignment: %d units", len(sol.Assignment))
	}
	for _, a := range sol.Assignment {
		if a < 0 || a >= 6 {
			t.Fatalf("invalid assignment %d", a)
		}
	}
}

func TestLargerBudgetNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 60, 4)
	short, err := SolveOpts(p, Options{Budget: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	long, err := SolveOpts(p, Options{Budget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if long.Objective > short.Objective+1e-9 {
		t.Errorf("longer budget worsened objective: %v -> %v", short.Objective, long.Objective)
	}
}

// TestParallelMatchesSequential is the solver's determinism contract:
// whenever the search exhausts, every Workers setting returns the identical
// canonical (objective, lex-smallest) optimum.
func TestParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, rng.Intn(7)+3, rng.Intn(2)+2)
		seq, err := SolveOpts(p, Options{Budget: 10 * time.Second, Workers: 1})
		if err != nil || !seq.Optimal {
			return false
		}
		for _, w := range []int{2, 3, 8} {
			par, err := SolveOpts(p, Options{Budget: 10 * time.Second, Workers: w})
			if err != nil || !par.Optimal {
				return false
			}
			if par.Objective != seq.Objective || !reflect.DeepEqual(par.Assignment, seq.Assignment) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMaxExploredReproducible: a node budget (unlike wall-clock) makes a
// truncated sequential search a pure function of the Problem — two runs
// return byte-identical solutions and explored-node counts.
func TestMaxExploredReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomProblem(rng, 120, 5)
	opts := Options{MaxExplored: 20_000}
	first, err := SolveOpts(p, opts)
	if err != nil {
		t.Fatalf("SolveOpts: %v", err)
	}
	if first.Optimal {
		t.Fatalf("instance too easy: solved optimally within %d nodes", opts.MaxExplored)
	}
	for run := 0; run < 3; run++ {
		again, err := SolveOpts(p, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if again.Objective != first.Objective ||
			again.Nodes != first.Nodes ||
			again.Optimal != first.Optimal ||
			!reflect.DeepEqual(again.Assignment, first.Assignment) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", run, again, first)
		}
	}
}

// A pure node budget with no wall-clock deadline must still terminate and
// report non-optimality, and never return worse than the greedy seed.
func TestMaxExploredCapsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 80, 4)
	sol, err := SolveOpts(p, Options{MaxExplored: 1_000})
	if err != nil {
		t.Fatalf("SolveOpts: %v", err)
	}
	if sol.Optimal {
		t.Error("80-unit instance should not exhaust within 1000 nodes")
	}
	if len(sol.Assignment) != 80 {
		t.Fatalf("incomplete assignment: %d units", len(sol.Assignment))
	}
	if math.Abs(sol.Objective-evaluate(p, sol.Assignment)) > 1e-9 {
		t.Errorf("objective %v disagrees with evaluation %v", sol.Objective, evaluate(p, sol.Assignment))
	}
}

// TestSearchStatsExactAcrossWorkers: tasks are searched in isolation, so
// every deterministic solver statistic — explored and pruned node counts,
// task count, seed objective, and the incumbent itself — is identical at
// every Workers setting, both for exhaustive runs and for truncated
// MaxExplored runs.
func TestSearchStatsExactAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, k int
		opts Options
	}{
		{"exhaustive", 12, 3, Options{Budget: 30 * time.Second}},
		{"truncated", 100, 5, Options{MaxExplored: 15_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p := randomProblem(rng, tc.n, tc.k)
			opts := tc.opts
			opts.Workers = 1
			base, err := SolveOpts(p, opts)
			if err != nil {
				t.Fatalf("Workers=1: %v", err)
			}
			if base.Tasks < 2 {
				t.Fatalf("decomposition degenerate: %d tasks", base.Tasks)
			}
			for _, workers := range []int{2, 4, 8} {
				opts.Workers = workers
				got, err := SolveOpts(p, opts)
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				if got.Nodes != base.Nodes || got.Pruned != base.Pruned ||
					got.Tasks != base.Tasks || got.SeedObjective != base.SeedObjective ||
					got.Objective != base.Objective || got.Optimal != base.Optimal ||
					!reflect.DeepEqual(got.Assignment, base.Assignment) {
					t.Errorf("Workers=%d diverged:\n got nodes=%d pruned=%d tasks=%d obj=%v optimal=%v\nwant nodes=%d pruned=%d tasks=%d obj=%v optimal=%v",
						workers, got.Nodes, got.Pruned, got.Tasks, got.Objective, got.Optimal,
						base.Nodes, base.Pruned, base.Tasks, base.Objective, base.Optimal)
				}
			}
		})
	}
}

// A zero-budget, zero-node-cap solve must still return the greedy seed
// deterministically (legacy anytime behaviour) and report its statistics.
func TestZeroBudgetReturnsSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomProblem(rng, 60, 4)
	sol, err := SolveOpts(p, Options{})
	if err != nil {
		t.Fatalf("SolveOpts: %v", err)
	}
	if sol.Optimal {
		t.Error("expired budget must not claim optimality")
	}
	if sol.Objective != sol.SeedObjective {
		t.Errorf("objective %v != seed objective %v", sol.Objective, sol.SeedObjective)
	}
	if math.Abs(sol.Objective-evaluate(p, sol.Assignment)) > 1e-9 {
		t.Errorf("objective %v disagrees with evaluation %v", sol.Objective, evaluate(p, sol.Assignment))
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	bad := []*Problem{
		{K: 0},
		{K: 2, Sizes: [][]int64{{1, 2}}, Comp: nil},
		{K: 2, Sizes: [][]int64{{1}}, Comp: []float64{1}},
	}
	for i, p := range bad {
		if _, err := SolveOpts(p, Options{Budget: time.Second}); err == nil {
			t.Errorf("instance %d should be rejected", i)
		}
	}
}
