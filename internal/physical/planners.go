package physical

import (
	"fmt"
	"time"

	"shufflejoin/internal/ilp"
	"shufflejoin/internal/join"
	"shufflejoin/internal/par"
)

// BaselinePlanner is the skew-agnostic comparison point of Section 6.2. It
// makes decisions at the level of entire arrays: for merge joins it moves
// the smaller array to the larger one (each unit goes where the larger
// array's slice of it lives), and for hash joins it deals contiguous
// equal-sized blocks of buckets to the nodes, as relational optimizers do.
type BaselinePlanner struct{}

// Name implements Planner.
func (BaselinePlanner) Name() string { return "Baseline" }

// Plan implements Planner.
func (b BaselinePlanner) Plan(pr *Problem) (Result, error) {
	start := time.Now()
	a := make(Assignment, pr.N)
	if pr.Algo == join.Hash {
		// First ceil(n/k) buckets to node 0, next block to node 1, ...
		block := (pr.N + pr.K - 1) / pr.K
		for i := range a {
			a[i] = i / block
		}
	} else {
		// Whole-array decision: which input is smaller overall?
		var leftCells, rightCells int64
		for i := 0; i < pr.N; i++ {
			leftCells += pr.LeftTotal[i]
			rightCells += pr.RightTotal[i]
		}
		larger := pr.Right
		if leftCells >= rightCells {
			larger = pr.Left
		}
		for i := range a {
			a[i] = argmax(larger[i])
			if larger[i][a[i]] == 0 {
				// Larger array absent from this unit: stay with whatever
				// data exists.
				a[i] = argmax(pr.Sizes[i])
			}
		}
	}
	return Result{
		Planner:    b.Name(),
		Assignment: a,
		Model:      pr.Evaluate(a),
		PlanTime:   time.Since(start),
		Optimal:    false,
	}, nil
}

// MinBandwidthPlanner is the Minimum Bandwidth Heuristic: each join unit is
// assigned to its "center of gravity" — the node already holding the most
// of its cells (Equation 9) — which provably minimizes the cells a plan
// transmits, while ignoring comparison balance.
type MinBandwidthPlanner struct{}

// Name implements Planner.
func (MinBandwidthPlanner) Name() string { return "MBH" }

// Plan implements Planner.
func (m MinBandwidthPlanner) Plan(pr *Problem) (Result, error) {
	start := time.Now()
	a := CenterOfGravity(pr)
	return Result{
		Planner:    m.Name(),
		Assignment: a,
		Model:      pr.Evaluate(a),
		PlanTime:   time.Since(start),
	}, nil
}

// CenterOfGravity computes the MBH assignment: argmax_j s_ij per unit.
// Ties are broken round-robin on the unit index: any tied node moves the
// same number of cells, so the choice is still bandwidth-optimal, and
// rotating avoids piling every tied unit onto node 0 when data is exactly
// uniform.
func CenterOfGravity(pr *Problem) Assignment {
	a := make(Assignment, pr.N)
	for i := 0; i < pr.N; i++ {
		row := pr.Sizes[i]
		best := argmax(row)
		pick := best
		for off := 0; off < pr.K; off++ {
			j := (i + off) % pr.K
			if row[j] == row[best] {
				pick = j
				break
			}
		}
		a[i] = pick
	}
	return a
}

func argmax(row []int64) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// DefaultEpsilon is GreedyPlanner's regret threshold, calibrated against
// the Zipf α sweep (expdriver -exp planquality): the greedy plan's
// makespan stays within 10% of the full planner's at every swept skew
// level, so predicted regret beyond that signals a problem shape one
// rebalancing sweep cannot balance and the fallback planner should see.
const DefaultEpsilon = 0.10

// GreedyPlanner is the fast-path physical planner: the center-of-gravity
// seed (minimum bandwidth, Equation 9) polished by one Tabu rebalancing
// sweep, and no ILP search. Planning cost is O(N·K) for the seed plus the
// sweep, microseconds at paper scale, while the sweep removes the worst
// comparison hot-spots the pure bandwidth heuristic leaves on skewed data.
//
// The greedy plan is kept unless its predicted regret (PredictedRegret)
// exceeds Epsilon; then Fallback plans too and the cheaper of the two
// plans wins, so falling back only ever errs toward quality. Result.Regret
// is the greedy plan's predicted regret either way.
type GreedyPlanner struct {
	// Epsilon is the largest acceptable predicted regret; <= 0 selects
	// DefaultEpsilon.
	Epsilon float64
	// Fallback is the full planner run when the regret exceeds Epsilon.
	// Nil never falls back.
	Fallback Planner
	// Workers shards the what-if evaluation as in TabuPlanner; the result
	// is identical at every setting.
	Workers int
}

// Name implements Planner.
func (GreedyPlanner) Name() string { return "Greedy" }

// Plan implements Planner.
func (g GreedyPlanner) Plan(pr *Problem) (Result, error) {
	res, err := TabuPlanner{MaxRounds: 1, Workers: g.Workers}.Plan(pr)
	if err != nil {
		return Result{}, err
	}
	res.Planner = g.Name()
	res.Regret = PredictedRegret(pr, res.Model.Total)
	eps := g.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if res.Regret <= eps || g.Fallback == nil {
		return res, nil
	}
	full, err := g.Fallback.Plan(pr)
	if err != nil {
		return Result{}, fmt.Errorf("physical: greedy fallback: %w", err)
	}
	// The fallback is a search under a budget, not an oracle: it must never
	// make a query worse than the greedy plan it replaced.
	if full.Model.Total > res.Model.Total {
		return res, nil
	}
	full.Regret = res.Regret
	return full, nil
}

// PredictedRegret is the greedy planner's quality signal: how far a
// plan's modeled makespan sits above the problem's analytic lower bound,
// as a fraction (0 = provably optimal). The true regret against the full
// planner is unobservable without running it; the lower bound
// over-approximates it, so thresholding the prediction only ever errs
// toward running the fallback.
func PredictedRegret(pr *Problem, total float64) float64 {
	lb := LowerBound(pr)
	if lb <= 0 {
		if total <= 0 {
			return 0
		}
		return total
	}
	if r := total/lb - 1; r > 0 {
		return r
	}
	return 0 // clamp float rounding when the plan sits exactly on the bound
}

// TabuPlanner implements Algorithm 2: start from the minimum-bandwidth
// plan, then repeatedly rebalance nodes whose per-node cost exceeds the
// mean by moving join units to cheaper nodes, never repeating a
// unit-to-node assignment (the tabu list holds assignments, not whole
// plans, keeping the search polynomial and loop-free).
//
// Moves are selected best-improvement: every candidate (unit, node) move
// off the overloaded node is costed with an O(1) what-if read from the
// evaluator's top-3 caches, and the winner is chosen by the deterministic
// (cost, unit, node) tie-break. The neighborhood evaluation is sharded
// over Workers goroutines; the caches are only read during the scan, and
// because the winning move depends only on the candidate costs — not on
// evaluation order — the search trajectory, final assignment, and cost are
// bit-for-bit identical at every Workers setting.
type TabuPlanner struct {
	// MaxRounds caps the outer rebalancing loop as a safety net; zero
	// means no cap beyond the tabu list's natural exhaustion.
	MaxRounds int
	// DisableTabuList turns off the assignment-level tabu memory, leaving
	// pure improving-move hill climbing (moves still terminate because
	// every accepted move strictly reduces the plan cost). Exists for the
	// tabu-granularity ablation benchmark.
	DisableTabuList bool
	// Workers shards the what-if evaluation of the move neighborhood;
	// <= 1 evaluates sequentially. The result is identical either way.
	Workers int
}

// Name implements Planner.
func (TabuPlanner) Name() string { return "Tabu" }

// Plan implements Planner.
func (t TabuPlanner) Plan(pr *Problem) (Result, error) {
	start := time.Now()
	a := CenterOfGravity(pr)

	// tabu[i*K+j] marks unit i having ever been assigned to node j.
	tabu := make([]bool, pr.N*pr.K)
	for i, j := range a {
		tabu[i*pr.K+j] = true
	}

	ev := newEvaluator(pr, a)
	var (
		stats SearchStats
		buf   tabuBuffers
	)
	costs := make([]float64, pr.K)
	for t.MaxRounds <= 0 || stats.TabuRounds < t.MaxRounds {
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
			if t.rebalanceNode(pr, a, n, tabu, ev, &stats, &buf) {
				changed = true
				ev.nodeCosts(costs)
			}
		}
		if !changed {
			break
		}
	}
	return Result{
		Planner:    t.Name(),
		Assignment: a,
		Model:      pr.Evaluate(a),
		PlanTime:   time.Since(start),
		Search:     stats,
	}, nil
}

// tabuMove is one candidate reassignment with its what-if plan cost.
type tabuMove struct {
	cost float64
	unit int
	node int
}

// better orders moves by the deterministic (cost, unit, node) tie-break.
func (m tabuMove) better(o tabuMove) bool {
	if m.cost != o.cost {
		return m.cost < o.cost
	}
	if m.unit != o.unit {
		return m.unit < o.unit
	}
	return m.node < o.node
}

// tabuBuffers are the candidate and per-worker winner slices one Plan
// reuses across every rebalanceNode call, so no move regrows them.
type tabuBuffers struct {
	cands, winners []tabuMove
}

// rebalanceNode repeatedly applies the best cost-improving move of a unit
// off node n to any non-tabu node (the what-if analysis of Algorithm 2)
// until none improves. Each what-if is an O(1) read of the evaluator's
// top-3 caches, which nothing writes during the scan, so the candidate
// neighborhood shards freely across workers; the applied move is the
// deterministic minimum over all candidates.
func (t TabuPlanner) rebalanceNode(pr *Problem, a Assignment, n int, tabu []bool, ev *evaluator, stats *SearchStats, buf *tabuBuffers) bool {
	improved := false
	for {
		cands := buf.cands[:0]
		for i := 0; i < pr.N; i++ {
			if a[i] != n {
				continue
			}
			for j := 0; j < pr.K; j++ {
				if j == n || (!t.DisableTabuList && tabu[i*pr.K+j]) {
					continue
				}
				cands = append(cands, tabuMove{unit: i, node: j})
			}
		}
		buf.cands = cands
		if len(cands) == 0 {
			return improved
		}
		stats.TabuWhatIfs += int64(len(cands))
		none := tabuMove{cost: ev.total(), unit: -1}
		// Spawning goroutines only pays off on real neighborhoods.
		w := t.Workers
		if w < 1 || len(cands) < 256 {
			w = 1
		}
		if cap(buf.winners) < w {
			buf.winners = make([]tabuMove, w)
		}
		winners := buf.winners[:w]
		for i := range winners {
			winners[i] = none
		}
		if w == 1 {
			// Inline, so the sequential scan allocates no closure.
			winners[0] = ev.bestMove(cands, n, none)
		} else {
			// The closure captures copies it never reassigns, so the
			// buffers themselves stay off the heap.
			cs, ws := cands, winners
			par.ForChunks(len(cs), w, func(lo, hi, wid int) {
				ws[wid] = ev.bestMove(cs[lo:hi], n, none)
			})
		}
		win := none
		for _, m := range winners {
			if m.unit >= 0 && m.better(win) {
				win = m
			}
		}
		if win.unit < 0 {
			return improved
		}
		ev.move(win.unit, n, win.node)
		a[win.unit] = win.node
		tabu[win.unit*pr.K+win.node] = true
		stats.TabuMoves++
		improved = true
	}
}

// bestMove costs each candidate move of a unit off node from and returns
// the best by the (cost, unit, node) tie-break among those cheaper than
// none, the current plan's cost; none itself when no candidate is.
func (ev *evaluator) bestMove(cands []tabuMove, from int, none tabuMove) tabuMove {
	best := none
	for _, cand := range cands {
		cand.cost = ev.whatIf(cand.unit, from, cand.node)
		if cand.cost < none.cost && cand.better(best) {
			best = cand
		}
	}
	return best
}

// top3 holds the three largest (value, node) pairs of a per-node
// quantity, largest first; node -1 marks an empty slot (K < 3).
type top3[T int64 | float64] [3]struct {
	v    T
	node int
}

func (t *top3[T]) reset() {
	for p := range t {
		t[p].node = -1
	}
}

// add offers node's value; ties keep the earlier node ahead.
func (t *top3[T]) add(v T, node int) {
	for p := range t {
		if t[p].node < 0 || v > t[p].v {
			copy(t[p+1:], t[p:len(t)-1])
			t[p].v, t[p].node = v, node
			return
		}
	}
}

// without returns the largest value held by a node other than a and b,
// or 0 when no such node exists. Two nodes are excluded at most, so the
// third slot always answers once K >= 3.
func (t *top3[T]) without(a, b int) T {
	for _, e := range t {
		if e.node >= 0 && e.node != a && e.node != b {
			return e.v
		}
	}
	return 0
}

// evaluator maintains per-node send/receive/comparison accumulators for a
// live assignment, plus top-3 caches of each node's max(send, recv) and
// comp, so a single-unit move's what-if costs O(1): the move changes only
// its two nodes, and the largest unchanged value is the first cached entry
// on neither. Only move writes the caches (an O(k) rebuild), so concurrent
// what-ifs read them freely.
type evaluator struct {
	pr      *Problem
	send    []int64 // cells node j must transmit
	recv    []int64 // cells node j must receive
	comp    []float64
	topMove top3[int64] // max(send_j, recv_j)
	topComp top3[float64]
}

func newEvaluator(pr *Problem, a Assignment) *evaluator {
	ev := &evaluator{
		pr:   pr,
		send: make([]int64, pr.K),
		recv: make([]int64, pr.K),
		comp: make([]float64, pr.K),
	}
	pr.accumulate(a, ev.send, ev.recv, ev.comp)
	ev.rebuildTops()
	return ev
}

// rebuildTops recomputes both top-3 caches from the accumulators.
func (ev *evaluator) rebuildTops() {
	ev.topMove.reset()
	ev.topComp.reset()
	for j := range ev.send {
		ev.topMove.add(max(ev.send[j], ev.recv[j]), j)
		ev.topComp.add(ev.comp[j], j)
	}
}

// whatIf returns the Equation-8 plan cost after hypothetically moving
// unit i from node from to node to, without mutating the evaluator — the
// read-only form of move+total that concurrent neighborhood evaluation
// requires. The arithmetic mirrors move/total exactly: both maxima start
// from 0, and a max of finite values is the same in any order, so a
// what-if cost equals the total that applying the move would produce, bit
// for bit.
func (ev *evaluator) whatIf(i, from, to int) float64 {
	pr := ev.pr
	sendFrom := ev.send[from] + pr.Sizes[i][from]
	sendTo := ev.send[to] - pr.Sizes[i][to]
	recvFrom := ev.recv[from] - (pr.UnitTotal[i] - pr.Sizes[i][from])
	recvTo := ev.recv[to] + (pr.UnitTotal[i] - pr.Sizes[i][to])
	compFrom := ev.comp[from] - pr.Comp[i]
	compTo := ev.comp[to] + pr.Comp[i]
	move := max(0, ev.topMove.without(from, to), sendFrom, recvFrom, sendTo, recvTo)
	maxComp := max(0, ev.topComp.without(from, to), compFrom, compTo)
	return float64(move)*pr.Params.Transfer + maxComp
}

// move reassigns unit i from node from to node to.
func (ev *evaluator) move(i, from, to int) {
	pr := ev.pr
	// The slice resident on the old destination must now be shipped; the
	// slice on the new destination no longer moves.
	ev.send[from] += pr.Sizes[i][from]
	ev.send[to] -= pr.Sizes[i][to]
	ev.recv[from] -= pr.UnitTotal[i] - pr.Sizes[i][from]
	ev.recv[to] += pr.UnitTotal[i] - pr.Sizes[i][to]
	ev.comp[from] -= pr.Comp[i]
	ev.comp[to] += pr.Comp[i]
	ev.rebuildTops()
}

// total computes the Equation-8 plan cost from the accumulators.
func (ev *evaluator) total() float64 {
	var move int64
	var maxComp float64
	for j := 0; j < ev.pr.K; j++ {
		if ev.send[j] > move {
			move = ev.send[j]
		}
		if ev.recv[j] > move {
			move = ev.recv[j]
		}
		if ev.comp[j] > maxComp {
			maxComp = ev.comp[j]
		}
	}
	return float64(move)*ev.pr.Params.Transfer + maxComp
}

// nodeCosts fills out (length k) with the per-node cost the Tabu search
// rebalances: each node's own alignment plus comparison time (the model
// of Equations 5–7 evaluated for a single j rather than as a max).
func (ev *evaluator) nodeCosts(out []float64) {
	for j := 0; j < ev.pr.K; j++ {
		move := ev.send[j]
		if ev.recv[j] > move {
			move = ev.recv[j]
		}
		out[j] = float64(move)*ev.pr.Params.Transfer + ev.comp[j]
	}
}

// ILPPlanner seeks the optimal assignment with the branch-and-bound solver
// under a budget, mirroring the paper's use of SCIP with a workload-tuned
// time limit. MaxExplored adds a deterministic node budget (plan quality
// no longer depends on machine speed or load); Budget remains the
// wall-clock cap. Workers parallelizes the search — any setting returns
// the same canonical optimum whenever the search completes.
type ILPPlanner struct {
	Budget      time.Duration
	MaxExplored int64
	Workers     int
}

// Name implements Planner.
func (ILPPlanner) Name() string { return "ILP" }

// Plan implements Planner.
func (p ILPPlanner) Plan(pr *Problem) (Result, error) {
	start := time.Now()
	sol, err := ilp.SolveOpts(&ilp.Problem{
		K:        pr.K,
		Sizes:    pr.Sizes,
		Comp:     pr.Comp,
		Transfer: pr.Params.Transfer,
	}, solverOptions(p.Budget, p.MaxExplored, p.Workers))
	if err != nil {
		return Result{}, err
	}
	a := Assignment(sol.Assignment)
	return Result{
		Planner:    p.Name(),
		Assignment: a,
		Model:      pr.Evaluate(a),
		PlanTime:   time.Since(start),
		Optimal:    sol.Optimal,
		Search:     ilpStats(sol),
	}, nil
}

// solverOptions applies the planners' shared budget defaulting: with
// neither a wall-clock nor a node budget set, fall back to the historical
// 5-second wall-clock cap.
func solverOptions(budget time.Duration, maxExplored int64, workers int) ilp.Options {
	if budget <= 0 && maxExplored <= 0 {
		budget = 5 * time.Second
	}
	return ilp.Options{Budget: budget, MaxExplored: maxExplored, Workers: workers}
}

// ilpStats maps the solver's deterministic counters into SearchStats.
func ilpStats(sol ilp.Solution) SearchStats {
	return SearchStats{
		ILPNodes:  sol.Nodes,
		ILPPruned: sol.Pruned,
		ILPTasks:  sol.Tasks,
		SeedCost:  sol.SeedObjective,
	}
}

// CoarseILPPlanner reduces the decision-variable count before solving:
// join units sharing a center of gravity are packed together into at most
// Bins bins (75 in the paper), each bin is assigned as a whole, and the
// solution expands back to the member units. Faster to solve, potentially
// poorer plans — the trade explored in Section 5.2. Budget, MaxExplored,
// and Workers behave as in ILPPlanner.
type CoarseILPPlanner struct {
	Budget      time.Duration
	Bins        int
	MaxExplored int64
	Workers     int
}

// Name implements Planner.
func (CoarseILPPlanner) Name() string { return "ILP-Coarse" }

// Plan implements Planner.
func (p CoarseILPPlanner) Plan(pr *Problem) (Result, error) {
	start := time.Now()
	bins := p.Bins
	if bins <= 0 {
		bins = 75
	}

	groups := packBins(pr, bins)

	// Build the coarse problem: per-bin slice sums and comparison costs.
	coarse := &ilp.Problem{K: pr.K, Transfer: pr.Params.Transfer}
	for _, g := range groups {
		row := make([]int64, pr.K)
		var comp float64
		for _, i := range g {
			for j := 0; j < pr.K; j++ {
				row[j] += pr.Sizes[i][j]
			}
			comp += pr.Comp[i]
		}
		coarse.Sizes = append(coarse.Sizes, row)
		coarse.Comp = append(coarse.Comp, comp)
	}
	sol, err := ilp.SolveOpts(coarse, solverOptions(p.Budget, p.MaxExplored, p.Workers))
	if err != nil {
		return Result{}, err
	}
	a := make(Assignment, pr.N)
	for b, g := range groups {
		for _, i := range g {
			a[i] = sol.Assignment[b]
		}
	}
	return Result{
		Planner:    p.Name(),
		Assignment: a,
		Model:      pr.Evaluate(a),
		PlanTime:   time.Since(start),
		Optimal:    sol.Optimal,
		Search:     ilpStats(sol),
	}, nil
}

// packBins groups units by center of gravity, then splits each gravity
// group into size-balanced bins so the total bin count stays at or under
// the target. Grouping same-gravity units avoids the solver "bin
// conflicts" the paper describes (bins torn between two hosts).
func packBins(pr *Problem, bins int) [][]int {
	if bins < pr.K {
		bins = pr.K
	}
	byCog := make([][]int, pr.K)
	for i := 0; i < pr.N; i++ {
		c := argmax(pr.Sizes[i])
		byCog[c] = append(byCog[c], i)
	}
	perCog := bins / pr.K
	if perCog < 1 {
		perCog = 1
	}
	var groups [][]int
	for _, members := range byCog {
		if len(members) == 0 {
			continue
		}
		nb := perCog
		if nb > len(members) {
			nb = len(members)
		}
		// Greedy size-balanced packing: biggest unit into the lightest bin.
		idx := append([]int(nil), members...)
		sortBySizeDesc(pr, idx)
		binUnits := make([][]int, nb)
		binLoad := make([]int64, nb)
		for _, i := range idx {
			light := 0
			for b := 1; b < nb; b++ {
				if binLoad[b] < binLoad[light] {
					light = b
				}
			}
			binUnits[light] = append(binUnits[light], i)
			binLoad[light] += pr.UnitTotal[i]
		}
		groups = append(groups, binUnits...)
	}
	return groups
}

func sortBySizeDesc(pr *Problem, idx []int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && pr.UnitTotal[idx[j]] > pr.UnitTotal[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
