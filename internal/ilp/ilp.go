// Package ilp is a from-scratch 0-1 branch-and-bound solver for the
// integer-program formulation of the physical shuffle join planner
// (Section 5 of the paper, Equations 10–12).
//
// The formulation assigns each join unit i to exactly one node j (binary
// variables x_ij, Equation 4) and minimizes d + g, where d bounds the data
// alignment time — t times the larger of the worst per-node send and
// receive cell counts (Equations 10–11) — and g bounds the worst per-node
// cell-comparison load (Equation 12). The paper applies the SCIP solver to
// this program; this package substitutes an exact branch-and-bound over the
// same model with the same anytime behaviour: the search runs under a
// budget and returns the best incumbent when the budget expires, flagging
// whether optimality was proven.
//
// # Determinism
//
// The solver canonicalizes ties: among equal-objective assignments it
// prefers the lexicographically smallest assignment vector (by unit
// index), and pruning is strict (a subtree is cut only when its lower
// bound exceeds the incumbent objective), so equal-cost regions are always
// searched.
//
// The search space is split into a fixed set of prefix-assignment tasks
// whose decomposition depends only on the Problem — never on Workers —
// and each task is searched in isolation: it prunes against the greedy
// seed and its own local incumbent, not a shared cross-task bound, so a
// task's explored node set, node count, and pruned-subtree count are pure
// functions of the Problem. Workers only decides how many goroutines
// drain the task queue. Consequently Solution.Nodes and Solution.Pruned
// are exact and identical at every Workers setting, a MaxExplored node
// budget (split across tasks as fixed per-task quotas) yields bit-for-bit
// reproducible truncated searches at any parallelism, and whenever the
// search exhausts (Solution.Optimal) the returned assignment is the
// canonical function of the Problem alone. Only wall-clock (Budget)
// truncation remains machine-dependent: it returns a valid incumbent —
// never worse than the greedy seed — whose identity depends on timing.
package ilp

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"shufflejoin/internal/par"
)

// Problem is one instance: n join units over k nodes.
//
// Sizes[i][j] is s_ij, the cells of unit i resident on node j (both join
// sides combined — they travel together). Comp[i] is C_i, the modeled
// comparison cost of unit i. Transfer is t, the per-cell transmission cost.
type Problem struct {
	K        int
	Sizes    [][]int64
	Comp     []float64
	Transfer float64
}

// Options configures one SolveOpts run.
type Options struct {
	// Budget is the wall-clock cap. When zero and MaxExplored is also
	// zero, the budget is treated as already expired: the deterministic
	// greedy seed is returned as the incumbent. When zero with
	// MaxExplored set, only the node budget applies.
	Budget time.Duration
	// MaxExplored caps the number of branch-and-bound nodes explored.
	// Unlike Budget it is machine- and load-independent: the cap is split
	// into fixed per-task quotas over the deterministic task decomposition,
	// so the explored node set — and therefore the incumbent — is a pure
	// function of the Problem at every Workers setting. Zero means no node
	// cap. Wall-clock remains a secondary cap when both are set.
	MaxExplored int64
	// Workers is the parallelism of the search: the task decomposition is
	// fixed by the Problem, and Workers goroutines drain the task queue.
	// <= 1 searches sequentially. Every value explores the same nodes and
	// returns the same solution (see the package determinism notes).
	Workers int
}

// Solution is the solver's answer.
type Solution struct {
	Assignment []int   // unit -> node
	Objective  float64 // modeled cost d + g of the assignment
	Optimal    bool    // true when the search space was exhausted
	// Nodes is the number of branch-and-bound nodes explored. Tasks are
	// searched in isolation (see the package determinism notes), so unless
	// the wall-clock Budget truncated the run, Nodes is exact: identical
	// at every Workers setting and across runs.
	Nodes int64
	// Pruned counts subtrees cut by the lower bound; deterministic under
	// the same conditions as Nodes.
	Pruned int64
	// Tasks is the size of the deterministic task decomposition.
	Tasks int
	// SeedObjective is the greedy seed's cost — the incumbent every task
	// starts from, and an upper bound on Objective.
	SeedObjective float64
	Elapsed       time.Duration
}

// Validate checks the instance.
func (p *Problem) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("ilp: k = %d", p.K)
	}
	if len(p.Sizes) != len(p.Comp) {
		return fmt.Errorf("ilp: %d size rows, %d comp entries", len(p.Sizes), len(p.Comp))
	}
	for i, row := range p.Sizes {
		if len(row) != p.K {
			return fmt.Errorf("ilp: unit %d has %d size entries, want %d", i, len(row), p.K)
		}
	}
	return nil
}

// SolveOpts runs branch and bound under the given options.
func SolveOpts(p *Problem, opts Options) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	start := time.Now()
	n := len(p.Sizes)
	if n == 0 {
		return Solution{Assignment: nil, Objective: 0, Optimal: true, Elapsed: time.Since(start)}, nil
	}

	st := newSearchState(p)

	// Branch on units in descending total-size order: big units constrain
	// the objective most, so deciding them first tightens bounds early.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return st.unitTotal[order[a]] > st.unitTotal[order[b]] })

	ctx := &searchCtx{
		p:     p,
		st:    st,
		order: order,
	}
	if opts.Budget > 0 {
		ctx.deadline = start.Add(opts.Budget)
	} else if opts.MaxExplored <= 0 {
		// Legacy zero-budget: expired from the outset; the greedy seed is
		// still returned (deterministically) as the incumbent.
		ctx.timedOut.Store(true)
	}
	// Suffix sums over the branching order: remaining per-node resident
	// cells and remaining unavoidable receives, for O(k) lower bounds.
	ctx.remCol = make([][]int64, n+1)
	ctx.remRecvMin = make([]int64, n+1)
	ctx.remCol[n] = make([]int64, p.K)
	for d := n - 1; d >= 0; d-- {
		i := order[d]
		ctx.remCol[d] = make([]int64, p.K)
		for j := 0; j < p.K; j++ {
			ctx.remCol[d][j] = ctx.remCol[d+1][j] + p.Sizes[i][j]
		}
		ctx.remRecvMin[d] = ctx.remRecvMin[d+1] + st.unitTotal[i] - st.maxSlice[i]
	}

	// Seed the search with the deterministic greedy descent: every task
	// prunes against (at least) this incumbent, and a budget-expired run
	// still returns the greedy plan.
	ctx.seed, ctx.seedObj = greedySeed(ctx)

	// The task decomposition and per-task quotas are fixed by the Problem
	// and MaxExplored — never by Workers — so the explored node set is
	// identical at every parallelism (see the package determinism notes).
	tasks := genTasks(ctx)
	quotas := taskQuotas(opts.MaxExplored, len(tasks))

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	results := make([]*worker, workers)
	var nextTask atomic.Int64
	par.Do(workers, func(wid int) {
		w := newWorker(ctx)
		w.best = append([]int(nil), ctx.seed...)
		w.bestObj = ctx.seedObj
		results[wid] = w
		for {
			ti := int(nextTask.Add(1)) - 1
			if ti >= len(tasks) {
				return
			}
			w.runTask(tasks[ti], quotas[ti])
		}
	})

	// Merge the per-worker incumbents with the canonical (objective, lex)
	// order — independent of which worker drained which task. There is
	// at least one task, so one worker, and each starts from the seed.
	best, bestObj := results[0].best, results[0].bestObj
	for _, w := range results[1:] {
		if w.bestObj < bestObj || (w.bestObj == bestObj && lexLess(w.best, best)) {
			best, bestObj = w.best, w.bestObj
		}
	}
	sol := Solution{
		Assignment:    append([]int(nil), best...),
		Objective:     bestObj,
		Optimal:       !ctx.timedOut.Load() && ctx.truncated.Load() == 0,
		Nodes:         ctx.explored.Load(),
		Pruned:        ctx.pruned.Load(),
		Tasks:         len(tasks),
		SeedObjective: ctx.seedObj,
		Elapsed:       time.Since(start),
	}
	return sol, nil
}

// taskTarget is the size the task decomposition aims for. It is a
// constant — not a multiple of Workers — so the decomposition, and with it
// every deterministic solver statistic, is a pure function of the Problem.
const taskTarget = 64

// genTasks expands the first branching levels breadth-first into prefix
// assignments (over ctx.order). Sequential and parallel runs share the
// same task list; Workers only changes who drains it.
func genTasks(ctx *searchCtx) [][]int {
	tasks := [][]int{nil}
	depth := 0
	for depth < len(ctx.order) && len(tasks) < taskTarget && len(tasks)*ctx.p.K <= 4096 {
		unit := ctx.order[depth]
		next := make([][]int, 0, len(tasks)*ctx.p.K)
		for _, t := range tasks {
			for _, j := range ctx.st.candOrder[unit] {
				nt := make([]int, depth+1)
				copy(nt, t)
				nt[depth] = j
				next = append(next, nt)
			}
		}
		tasks = next
		depth++
	}
	return tasks
}

// taskQuotas splits a MaxExplored node budget into fixed per-task quotas
// (earlier tasks get the remainder). quota < 0 means unlimited.
func taskQuotas(maxExplored int64, tasks int) []int64 {
	quotas := make([]int64, tasks)
	if maxExplored <= 0 {
		for i := range quotas {
			quotas[i] = -1
		}
		return quotas
	}
	base := maxExplored / int64(tasks)
	rem := maxExplored % int64(tasks)
	for i := range quotas {
		quotas[i] = base
		if int64(i) < rem {
			quotas[i]++
		}
	}
	return quotas
}

// greedySeed constructs the initial incumbent: units in branching order,
// each placed on the node minimizing the partial objective, ties broken by
// candidate order. A pure function of the Problem, so the seed — and with
// it every budget-expired answer at Workers <= 1 — is deterministic.
func greedySeed(ctx *searchCtx) ([]int, float64) {
	w := newWorker(ctx)
	for _, unit := range ctx.order {
		bestJ := -1
		bestObj := math.Inf(1)
		for _, j := range ctx.st.candOrder[unit] {
			w.place(unit, j)
			obj := w.objective()
			w.unplace(unit, j)
			if obj < bestObj {
				bestObj, bestJ = obj, j
			}
		}
		w.place(unit, bestJ)
	}
	return append([]int(nil), w.assign...), w.objective()
}

// lexLess orders assignment vectors lexicographically by unit index — the
// canonical tie-break among equal-objective assignments.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// searchState precomputes per-instance quantities.
type searchState struct {
	unitTotal  []int64 // S_i
	maxSlice   []int64 // max_j s_ij
	colTotal   []int64 // per node: total cells resident there
	totalComp  float64 // Σ C_i
	minRecvSum int64   // Σ_i (S_i - max_j s_ij): unavoidable received cells
	candOrder  [][]int // per unit: nodes in descending local-slice order
}

func newSearchState(p *Problem) *searchState {
	n := len(p.Sizes)
	st := &searchState{
		unitTotal: make([]int64, n),
		maxSlice:  make([]int64, n),
		colTotal:  make([]int64, p.K),
	}
	for i, row := range p.Sizes {
		var total, mx int64
		for j, s := range row {
			total += s
			st.colTotal[j] += s
			if s > mx {
				mx = s
			}
		}
		st.unitTotal[i] = total
		st.maxSlice[i] = mx
		st.minRecvSum += total - mx
	}
	for _, c := range p.Comp {
		st.totalComp += c
	}
	st.candOrder = make([][]int, n)
	for i, row := range p.Sizes {
		cand := make([]int, p.K)
		for j := range cand {
			cand[j] = j
		}
		sort.SliceStable(cand, func(a, b int) bool { return row[cand[a]] > row[cand[b]] })
		st.candOrder[i] = cand
	}
	return st
}

// searchCtx is the state shared by every worker of one SolveOpts run: the
// read-only instance data, the greedy seed, and the atomic run totals.
// There is deliberately no shared incumbent bound — tasks prune only
// against the seed and their own local incumbent, so each task's explored
// node set is a pure function of the Problem (see the package docs).
type searchCtx struct {
	p     *Problem
	st    *searchState
	order []int

	// Suffix sums over the branching order (see SolveOpts).
	remCol     [][]int64
	remRecvMin []int64

	deadline time.Time // zero = no wall-clock cap

	seed    []int
	seedObj float64

	explored  atomic.Int64
	pruned    atomic.Int64
	truncated atomic.Int64 // tasks cut short by their node quota
	timedOut  atomic.Bool  // wall-clock budget expired
}

// worker is one goroutine's search state: mutable per-node accumulators
// for the partial assignment, its cross-task incumbent, and the per-task
// accumulators reset by runTask.
type worker struct {
	ctx        *searchCtx
	ownSum     []int64   // cells of units assigned to j that already live on j
	recv       []int64   // cells units assigned to j must pull from elsewhere
	comp       []float64 // comparison load assigned to j
	assign     []int
	best       []int
	bestObj    float64
	sinceCheck int

	// Per-task state: the task-local incumbent (seeded from the greedy
	// seed so pruning and tie-breaks never depend on other tasks), the
	// node quota, and the task's explored/pruned tallies.
	taskBest      []int
	taskBestObj   float64
	taskQuota     int64
	taskExplored  int64
	taskPruned    int64
	taskTruncated bool
}

func newWorker(ctx *searchCtx) *worker {
	n := len(ctx.p.Sizes)
	w := &worker{
		ctx:    ctx,
		ownSum: make([]int64, ctx.p.K),
		recv:   make([]int64, ctx.p.K),
		comp:   make([]float64, ctx.p.K),
		assign: make([]int, n),
	}
	for i := range w.assign {
		w.assign[i] = -1
	}
	return w
}

// runTask replays a prefix assignment (over ctx.order) into fresh
// accumulators, searches the subtree below it in isolation against the
// given node quota, then folds the task's incumbent and tallies into the
// worker's cross-task state.
func (w *worker) runTask(prefix []int, quota int64) {
	ctx := w.ctx
	for j := range w.ownSum {
		w.ownSum[j], w.recv[j], w.comp[j] = 0, 0, 0
	}
	for i := range w.assign {
		w.assign[i] = -1
	}
	for d, j := range prefix {
		unit := ctx.order[d]
		w.place(unit, j)
	}
	w.taskBest = append(w.taskBest[:0], ctx.seed...)
	w.taskBestObj = ctx.seedObj
	w.taskQuota = quota
	w.taskExplored = 0
	w.taskPruned = 0
	w.taskTruncated = false

	w.dfs(len(prefix))

	ctx.explored.Add(w.taskExplored)
	ctx.pruned.Add(w.taskPruned)
	if w.taskTruncated {
		ctx.truncated.Add(1)
	}
	if w.taskBestObj < w.bestObj || (w.taskBestObj == w.bestObj && lexLess(w.taskBest, w.best)) {
		w.best = append(w.best[:0], w.taskBest...)
		w.bestObj = w.taskBestObj
	}
}

func (w *worker) place(unit, j int) {
	w.assign[unit] = j
	w.ownSum[j] += w.ctx.p.Sizes[unit][j]
	w.recv[j] += w.ctx.st.unitTotal[unit] - w.ctx.p.Sizes[unit][j]
	w.comp[j] += w.ctx.p.Comp[unit]
}

func (w *worker) unplace(unit, j int) {
	w.assign[unit] = -1
	w.ownSum[j] -= w.ctx.p.Sizes[unit][j]
	w.recv[j] -= w.ctx.st.unitTotal[unit] - w.ctx.p.Sizes[unit][j]
	w.comp[j] -= w.ctx.p.Comp[unit]
}

func (w *worker) dfs(depth int) {
	ctx := w.ctx
	w.taskExplored++
	if w.taskQuota >= 0 && w.taskExplored > w.taskQuota {
		w.taskTruncated = true
	}
	w.sinceCheck++
	if w.sinceCheck >= 4096 {
		w.sinceCheck = 0
		if !ctx.deadline.IsZero() && time.Now().After(ctx.deadline) {
			ctx.timedOut.Store(true)
		}
	}
	if w.taskTruncated || ctx.timedOut.Load() {
		return
	}

	if depth == len(ctx.order) {
		obj := w.objective()
		if obj < w.taskBestObj || (obj == w.taskBestObj && lexLess(w.assign, w.taskBest)) {
			w.taskBest = append(w.taskBest[:0], w.assign...)
			w.taskBestObj = obj
		}
		return
	}
	// Strict pruning (>) keeps equal-objective subtrees alive so the
	// canonical lex-smallest optimum is always reachable. The bound is the
	// task-local incumbent (at worst the greedy seed) — never a value from
	// another task — so pruning decisions replay identically at every
	// Workers setting.
	if w.lowerBound(depth) > w.taskBestObj {
		w.taskPruned++
		return
	}

	unit := ctx.order[depth]

	// Try nodes in descending local-slice order: keeping the unit near its
	// data is usually best, so good incumbents appear early.
	for _, j := range ctx.st.candOrder[unit] {
		w.place(unit, j)
		w.dfs(depth + 1)
		w.unplace(unit, j)
		if w.taskTruncated || ctx.timedOut.Load() {
			return
		}
	}
}

// objective computes d + g for a complete assignment:
// d = t · max(max_j send_j, max_j recv_j), g = max_j comp_j.
func (w *worker) objective() float64 {
	var maxSend, maxRecv int64
	var maxComp float64
	for j := 0; j < w.ctx.p.K; j++ {
		send := w.ctx.st.colTotal[j] - w.ownSum[j]
		if send > maxSend {
			maxSend = send
		}
		if w.recv[j] > maxRecv {
			maxRecv = w.recv[j]
		}
		if w.comp[j] > maxComp {
			maxComp = w.comp[j]
		}
	}
	move := maxSend
	if maxRecv > move {
		move = maxRecv
	}
	return float64(move)*w.ctx.p.Transfer + maxComp
}

// lowerBound is an admissible bound on the best completion of the current
// partial assignment (units at order positions < depth are fixed).
func (w *worker) lowerBound(depth int) float64 {
	ctx := w.ctx
	// Receive: already-accumulated per-node receives only grow; each
	// remaining unit must pull at least S_i - max_j s_ij cells. Spreading
	// that perfectly gives a max-receive bound.
	var curMaxRecv, curRecvSum int64
	var curMaxComp float64
	for j := 0; j < ctx.p.K; j++ {
		if w.recv[j] > curMaxRecv {
			curMaxRecv = w.recv[j]
		}
		curRecvSum += w.recv[j]
		if w.comp[j] > curMaxComp {
			curMaxComp = w.comp[j]
		}
	}
	recvLB := curMaxRecv
	if avg := (curRecvSum + ctx.remRecvMin[depth] + int64(ctx.p.K) - 1) / int64(ctx.p.K); avg > recvLB {
		recvLB = avg
	}

	// Send: node j will eventually send colTotal_j minus the local slices
	// of units assigned to it. Remaining units could at best keep all their
	// j-resident cells home.
	var sendLB int64
	for j := 0; j < ctx.p.K; j++ {
		lb := ctx.st.colTotal[j] - w.ownSum[j] - ctx.remCol[depth][j]
		if lb > sendLB {
			sendLB = lb
		}
	}

	// Comparison: remaining comp spread perfectly still bounds max comp by
	// the average of the total.
	compLB := curMaxComp
	if avg := ctx.st.totalComp / float64(ctx.p.K); avg > compLB {
		compLB = avg
	}

	move := recvLB
	if sendLB > move {
		move = sendLB
	}
	return float64(move)*ctx.p.Transfer + compLB
}
