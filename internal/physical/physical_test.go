package physical

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"shufflejoin/internal/join"
	"shufflejoin/internal/workload"
)

// mkProblem builds a problem from combined slice matrices, splitting cells
// evenly between the two sides.
func mkProblem(t *testing.T, k int, algo join.Algorithm, sizes [][]int64) *Problem {
	t.Helper()
	left := make([][]int64, len(sizes))
	right := make([][]int64, len(sizes))
	for i, row := range sizes {
		l := make([]int64, k)
		r := make([]int64, k)
		for j, s := range row {
			l[j] = s / 2
			r[j] = s - s/2
		}
		left[i], right[i] = l, r
	}
	pr, err := NewProblem(k, algo, left, right, CostParams{Merge: 1, Build: 3, Probe: 1, Transfer: 10})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return pr
}

func randProblem(rng *rand.Rand, n, k int, algo join.Algorithm) *Problem {
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := 0; i < n; i++ {
		l := make([]int64, k)
		r := make([]int64, k)
		for j := 0; j < k; j++ {
			l[j] = rng.Int63n(100)
			r[j] = rng.Int63n(100)
		}
		left[i], right[i] = l, r
	}
	pr, _ := NewProblem(k, algo, left, right, DefaultParams())
	return pr
}

func allPlanners() []Planner {
	return []Planner{
		BaselinePlanner{},
		MinBandwidthPlanner{},
		TabuPlanner{},
		ILPPlanner{Budget: 300 * time.Millisecond},
		CoarseILPPlanner{Budget: 300 * time.Millisecond, Bins: 16},
	}
}

func TestNewProblemDerivations(t *testing.T) {
	left := [][]int64{{10, 0}, {4, 6}}
	right := [][]int64{{0, 20}, {1, 1}}
	pr, err := NewProblem(2, join.Hash, left, right, CostParams{Build: 3, Probe: 1, Transfer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.UnitTotal[0] != 30 || pr.UnitTotal[1] != 12 {
		t.Errorf("UnitTotal = %v", pr.UnitTotal)
	}
	if pr.Sizes[0][0] != 10 || pr.Sizes[0][1] != 20 {
		t.Errorf("Sizes[0] = %v", pr.Sizes[0])
	}
	// Unit 0: small side 10 (left), large 20 -> C = 3*10 + 1*20 = 50.
	if pr.Comp[0] != 50 {
		t.Errorf("Comp[0] = %v, want 50", pr.Comp[0])
	}
	// Unit 1: small 2 (right), large 10 -> C = 3*2 + 1*10 = 16.
	if pr.Comp[1] != 16 {
		t.Errorf("Comp[1] = %v, want 16", pr.Comp[1])
	}
}

func TestNewProblemMergeCost(t *testing.T) {
	pr, err := NewProblem(1, join.Merge, [][]int64{{7}}, [][]int64{{5}}, CostParams{Merge: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Comp[0] != 24 { // m * S_i = 2 * 12
		t.Errorf("Comp = %v, want 24", pr.Comp[0])
	}
}

func TestNewProblemRejectsNestedLoop(t *testing.T) {
	if _, err := NewProblem(2, join.NestedLoop, nil, nil, DefaultParams()); err == nil {
		t.Error("nested loop should be rejected")
	}
}

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(0, join.Merge, nil, nil, DefaultParams()); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewProblem(2, join.Merge, [][]int64{{1, 2}}, nil, DefaultParams()); err == nil {
		t.Error("mismatched sides should fail")
	}
	if _, err := NewProblem(2, join.Merge, [][]int64{{1}}, [][]int64{{1}}, DefaultParams()); err == nil {
		t.Error("short row should fail")
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	// 2 nodes. Unit 0: 10 cells on node 0, 20 on node 1. Unit 1: 6 on
	// node 0 only. Assign unit 0 -> node 1, unit 1 -> node 0.
	pr := mkProblem(t, 2, join.Merge, [][]int64{{10, 20}, {6, 0}})
	bd := pr.Evaluate(Assignment{1, 0})
	// Node 0 sends unit 0's 10 cells; node 1 sends nothing.
	if bd.MaxSendCells != 10 {
		t.Errorf("MaxSendCells = %d, want 10", bd.MaxSendCells)
	}
	// Node 1 receives 10; node 0 receives 0.
	if bd.MaxRecvCells != 10 {
		t.Errorf("MaxRecvCells = %d, want 10", bd.MaxRecvCells)
	}
	if bd.AlignTime != 100 { // 10 cells * t=10
		t.Errorf("AlignTime = %v, want 100", bd.AlignTime)
	}
	// Comp (m=1): node 1 gets unit 0 (30), node 0 gets unit 1 (6): max 30.
	if bd.CompareTime != 30 {
		t.Errorf("CompareTime = %v, want 30", bd.CompareTime)
	}
	if bd.Total != 130 {
		t.Errorf("Total = %v, want 130", bd.Total)
	}
}

func TestCellsMoved(t *testing.T) {
	pr := mkProblem(t, 2, join.Merge, [][]int64{{10, 20}, {6, 0}})
	if got := pr.CellsMoved(Assignment{1, 0}); got != 10 {
		t.Errorf("CellsMoved = %d, want 10", got)
	}
	if got := pr.CellsMoved(Assignment{0, 0}); got != 20 {
		t.Errorf("CellsMoved = %d, want 20", got)
	}
}

func TestMBHMinimizesBandwidthProperty(t *testing.T) {
	// Equation 9's center-of-gravity placement provably minimizes cells
	// moved; verify against random alternatives.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := randProblem(rng, rng.Intn(20)+1, rng.Intn(4)+2, join.Merge)
		res, err := MinBandwidthPlanner{}.Plan(pr)
		if err != nil {
			return false
		}
		mbh := pr.CellsMoved(res.Assignment)
		for trial := 0; trial < 10; trial++ {
			alt := make(Assignment, pr.N)
			for i := range alt {
				alt[i] = rng.Intn(pr.K)
			}
			if pr.CellsMoved(alt) < mbh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBaselineHashContiguousBlocks(t *testing.T) {
	pr := randProblem(rand.New(rand.NewSource(1)), 8, 4, join.Hash)
	res, err := BaselinePlanner{}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	want := Assignment{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if res.Assignment[i] != want[i] {
			t.Fatalf("baseline hash assignment = %v, want %v", res.Assignment, want)
		}
	}
}

func TestBaselineMergeMovesSmallerArray(t *testing.T) {
	// Left array is larger; every unit must go where the LEFT slice lives.
	left := [][]int64{{100, 0}, {0, 100}}
	right := [][]int64{{0, 5}, {5, 0}}
	pr, err := NewProblem(2, join.Merge, left, right, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BaselinePlanner{}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != 0 || res.Assignment[1] != 1 {
		t.Errorf("assignment = %v, want [0 1] (follow the larger array)", res.Assignment)
	}
}

func TestTabuNeverWorseThanMBH(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := randProblem(rng, rng.Intn(40)+2, rng.Intn(4)+2, join.Hash)
		mbh, err1 := MinBandwidthPlanner{}.Plan(pr)
		tabu, err2 := TabuPlanner{}.Plan(pr)
		if err1 != nil || err2 != nil {
			return false
		}
		return tabu.Model.Total <= mbh.Model.Total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTabuImprovesSkewedComparisonLoad(t *testing.T) {
	// All units live on node 0 with modest transfer cost: MBH piles all
	// comparison on node 0; Tabu must shed load.
	n := 16
	sizes := make([][]int64, n)
	for i := range sizes {
		sizes[i] = []int64{100, 0, 0, 0}
	}
	pr := mkProblem(t, 4, join.Merge, sizes)
	pr.Params.Transfer = 0.001 // cheap network, expensive comparison
	for i := range pr.Comp {
		pr.Comp[i] = pr.Params.Merge * float64(pr.UnitTotal[i])
	}
	mbh, _ := MinBandwidthPlanner{}.Plan(pr)
	tabu, _ := TabuPlanner{}.Plan(pr)
	if tabu.Model.Total >= mbh.Model.Total {
		t.Errorf("tabu (%v) did not improve on MBH (%v)", tabu.Model.Total, mbh.Model.Total)
	}
	if tabu.Model.CompareTime >= mbh.Model.CompareTime {
		t.Errorf("tabu comparison time %v not below MBH's %v",
			tabu.Model.CompareTime, mbh.Model.CompareTime)
	}
}

// TestTabuParallelMatchesSequential: sharding the neighborhood evaluation
// must not change the search trajectory — on skewed Zipf workloads large
// enough to take the parallel path, every Workers setting produces the
// bit-for-bit identical assignment and model cost.
func TestTabuParallelMatchesSequential(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.0, 2.0} {
		rng := rand.New(rand.NewSource(int64(alpha * 100)))
		ls := workload.ZipfUnitSizes(1024, alpha, 1<<20, rng)
		rs := workload.ZipfUnitSizes(1024, alpha, 1<<20, rng)
		left, right := workload.HashSlices(ls, rs, 8, alpha, rng)
		pr, err := NewProblem(8, join.Hash, left, right, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		seq, err := TabuPlanner{Workers: 1}.Plan(pr)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 7} {
			par, err := TabuPlanner{Workers: w}.Plan(pr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Assignment, seq.Assignment) {
				t.Errorf("alpha=%v workers=%d: assignment diverged from sequential", alpha, w)
			}
			if par.Model.Total != seq.Model.Total {
				t.Errorf("alpha=%v workers=%d: cost %v != sequential %v",
					alpha, w, par.Model.Total, seq.Model.Total)
			}
		}
	}
}

// TestILPPlannersParallelMatchSequential: on instances the solver exhausts,
// the parallel search returns the same canonical optimum.
func TestILPPlannersParallelMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pr := randProblem(rng, 10, 3, join.Hash)
	seq, err := ILPPlanner{Budget: 10 * time.Second, Workers: 1}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ILPPlanner{Budget: 10 * time.Second, Workers: 4}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Optimal || !par.Optimal {
		t.Fatal("instance should be solved optimally at any worker count")
	}
	if !reflect.DeepEqual(par.Assignment, seq.Assignment) {
		t.Errorf("parallel ILP assignment %v != sequential %v", par.Assignment, seq.Assignment)
	}

	coarse := randProblem(rng, 64, 3, join.Hash)
	cseq, err := CoarseILPPlanner{Budget: 10 * time.Second, Bins: 8, Workers: 1}.Plan(coarse)
	if err != nil {
		t.Fatal(err)
	}
	cpar, err := CoarseILPPlanner{Budget: 10 * time.Second, Bins: 8, Workers: 4}.Plan(coarse)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cpar.Assignment, cseq.Assignment) {
		t.Error("parallel coarse ILP assignment diverged from sequential")
	}
}

// TestILPPlannerMaxExploredDeterministic: with a node budget instead of a
// wall-clock budget, the truncated plan is reproducible run to run.
func TestILPPlannerMaxExploredDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pr := randProblem(rng, 60, 4, join.Hash)
	p := ILPPlanner{MaxExplored: 5_000}
	first, err := p.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if first.Optimal {
		t.Fatal("60-unit instance should not exhaust within 5000 nodes")
	}
	second, err := p.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Assignment, first.Assignment) || second.Model.Total != first.Model.Total {
		t.Errorf("MaxExplored plan not reproducible: %v (%v) vs %v (%v)",
			first.Assignment, first.Model.Total, second.Assignment, second.Model.Total)
	}
}

func TestILPOptimalOnSmallInstances(t *testing.T) {
	// With ample budget the ILP must match or beat every other planner.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		pr := randProblem(rng, 8, 3, join.Hash)
		ilpRes, err := ILPPlanner{Budget: 5 * time.Second}.Plan(pr)
		if err != nil {
			t.Fatal(err)
		}
		if !ilpRes.Optimal {
			t.Fatal("small instance should be solved optimally")
		}
		for _, pl := range allPlanners() {
			res, err := pl.Plan(pr)
			if err != nil {
				t.Fatal(err)
			}
			if ilpRes.Model.Total > res.Model.Total+1e-9 {
				t.Errorf("ILP (%v) beaten by %s (%v)", ilpRes.Model.Total, pl.Name(), res.Model.Total)
			}
		}
	}
}

func TestCoarseBinsShareCenterOfGravity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pr := randProblem(rng, 64, 4, join.Hash)
	groups := packBins(pr, 16)
	total := 0
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty bin")
		}
		cog := argmax(pr.Sizes[g[0]])
		for _, i := range g {
			if argmax(pr.Sizes[i]) != cog {
				t.Fatal("bin mixes centers of gravity")
			}
		}
		total += len(g)
	}
	if total != pr.N {
		t.Fatalf("bins cover %d units, want %d", total, pr.N)
	}
	if len(groups) > 16 {
		t.Errorf("%d bins exceed target 16", len(groups))
	}
}

func TestAllPlannersProduceValidAssignments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		algo := join.Merge
		if seed%2 == 0 {
			algo = join.Hash
		}
		pr := randProblem(rng, rng.Intn(30)+1, rng.Intn(5)+1, algo)
		for _, pl := range allPlanners() {
			res, err := pl.Plan(pr)
			if err != nil || !pr.Valid(res.Assignment) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNodeCostsSumConsistentWithEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pr := randProblem(rng, 20, 4, join.Merge)
	a := CenterOfGravity(pr)
	bd := pr.Evaluate(a)
	costs := make([]float64, pr.K)
	newEvaluator(pr, a).nodeCosts(costs)
	var maxNode float64
	for _, c := range costs {
		if c > maxNode {
			maxNode = c
		}
	}
	// The max per-node cost bounds the model total from below (total uses
	// independent maxima which can come from different nodes).
	if bd.Total < maxNode-1e-9 {
		t.Errorf("Evaluate total %v below max node cost %v", bd.Total, maxNode)
	}
}

func TestUniformDataAllPlannersComparable(t *testing.T) {
	// Section 6.2: with uniform data all optimizers produce plans of
	// similar quality. Require every planner within 2x of the best.
	n, k := 32, 4
	sizes := make([][]int64, n)
	for i := range sizes {
		row := make([]int64, k)
		for j := range row {
			row[j] = 50
		}
		sizes[i] = row
	}
	pr := mkProblem(t, k, join.Hash, sizes)
	best := math.Inf(1)
	totals := map[string]float64{}
	for _, pl := range allPlanners() {
		res, err := pl.Plan(pr)
		if err != nil {
			t.Fatal(err)
		}
		totals[pl.Name()] = res.Model.Total
		if res.Model.Total < best {
			best = res.Model.Total
		}
	}
	for name, total := range totals {
		if total > 2*best {
			t.Errorf("%s total %v more than 2x best %v on uniform data", name, total, best)
		}
	}
}

func TestLowerBoundHoldsForAllPlanners(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		algo := join.Merge
		if seed%2 == 0 {
			algo = join.Hash
		}
		pr := randProblem(rng, rng.Intn(30)+1, rng.Intn(5)+1, algo)
		lb := LowerBound(pr)
		for _, pl := range append(allPlanners(), GreedyPlanner{}) {
			res, err := pl.Plan(pr)
			if err != nil {
				return false
			}
			if res.Model.Total < lb-1e-9 {
				t.Logf("%s: cost %v below lower bound %v", pl.Name(), res.Model.Total, lb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundExactOnOptimal(t *testing.T) {
	// On a tiny instance the exhaustive ILP optimum must sit at or above
	// the bound, and on perfectly uniform local data (nothing to move,
	// identical unit costs, N a multiple of K) exactly on it.
	sizes := [][]int64{{8, 0}, {0, 8}, {8, 0}, {0, 8}}
	pr := mkProblem(t, 2, join.Merge, sizes)
	res, err := ILPPlanner{Budget: time.Second}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("instance too small not to solve optimally")
	}
	lb := LowerBound(pr)
	if res.Model.Total < lb-1e-9 {
		t.Errorf("optimum %v below bound %v", res.Model.Total, lb)
	}
	if math.Abs(res.Model.Total-lb) > 1e-9 {
		t.Errorf("uniform instance: optimum %v != bound %v", res.Model.Total, lb)
	}
}

func TestGreedyPlannerNeverWorseThanMBH(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		pr := randProblem(rng, 40, 4, join.Hash)
		mbh, _ := MinBandwidthPlanner{}.Plan(pr)
		greedy, err := GreedyPlanner{}.Plan(pr)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Planner != "Greedy" {
			t.Fatalf("Planner = %q", greedy.Planner)
		}
		if greedy.Model.Total > mbh.Model.Total+1e-9 {
			t.Errorf("trial %d: greedy %v worse than its MBH seed %v",
				trial, greedy.Model.Total, mbh.Model.Total)
		}
		if !pr.Valid(greedy.Assignment) {
			t.Fatalf("trial %d: invalid assignment", trial)
		}
	}
}

func TestGreedyPlannerDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pr := randProblem(rng, 64, 6, join.Merge)
	seq, _ := GreedyPlanner{Workers: 1}.Plan(pr)
	par8, _ := GreedyPlanner{Workers: 8}.Plan(pr)
	if !reflect.DeepEqual(seq.Assignment, par8.Assignment) {
		t.Error("greedy assignment depends on Workers")
	}
	if seq.Model != par8.Model {
		t.Errorf("greedy cost differs: %v vs %v", seq.Model, par8.Model)
	}
}

func TestGreedyKeepsPlanWhenRegretSmall(t *testing.T) {
	// Uniform data: greedy is at the lower bound, regret ~0, no fallback.
	k, n := 4, 32
	left := make([][]int64, n)
	right := make([][]int64, n)
	for i := 0; i < n; i++ {
		l := make([]int64, k)
		r := make([]int64, k)
		l[i%k], r[i%k] = 100, 100
		left[i], right[i] = l, r
	}
	pr, err := NewProblem(k, join.Merge, left, right, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := GreedyPlanner{Fallback: ILPPlanner{Budget: time.Second}}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Planner != "Greedy" {
		t.Errorf("uniform data fell back: Planner = %q (regret %v)", res.Planner, res.Regret)
	}
	if res.Regret > 1e-9 {
		t.Errorf("regret = %v on uniform data, want ~0", res.Regret)
	}
}

func TestGreedyFallsBackOnHighRegret(t *testing.T) {
	pr := randProblem(rand.New(rand.NewSource(7)), 48, 4, join.Hash)
	// An absurdly strict ε forces the fallback path regardless of the
	// greedy plan's real quality.
	res, err := GreedyPlanner{Epsilon: 1e-12, Fallback: TabuPlanner{}}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	greedy, _ := GreedyPlanner{}.Plan(pr)
	if greedy.Regret <= 1e-12 {
		t.Fatalf("fixture's greedy plan has no regret (%v)", greedy.Regret)
	}
	if res.Regret != PredictedRegret(pr, greedy.Model.Total) {
		t.Errorf("Result.Regret = %v, want the greedy plan's", res.Regret)
	}
	tabu, _ := TabuPlanner{}.Plan(pr)
	if tabu.Model.Total <= greedy.Model.Total && res.Planner != "Tabu" {
		t.Errorf("high regret and a cheaper fallback, but Planner = %q", res.Planner)
	}
	// The result never models worse than the pure greedy plan.
	if res.Model.Total > greedy.Model.Total+1e-9 {
		t.Errorf("result %v worse than greedy %v", res.Model.Total, greedy.Model.Total)
	}
}

func TestGreedyNilFallbackKeepsGreedy(t *testing.T) {
	pr := randProblem(rand.New(rand.NewSource(3)), 16, 4, join.Hash)
	res, err := GreedyPlanner{Epsilon: 1e-12}.Plan(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Planner != "Greedy" {
		t.Errorf("nil fallback: %+v", res)
	}
}
