// Package physical implements the physical shuffle join planner of
// Section 5 of the paper: given per-node slice statistics for every join
// unit, it assigns each unit to a cluster node, balancing network transfer
// (the scarcest shared resource in a shared-nothing cluster) against
// cell-comparison load.
//
// The analytical cost model follows Equations 4–8: a plan's data alignment
// time is t times the larger of the worst per-node send and receive cell
// counts, and its cell comparison time is the worst per-node sum of unit
// costs C_i, where C_i depends on the chosen join algorithm.
package physical

import (
	"fmt"
	"time"

	"shufflejoin/internal/join"
)

// CostParams are the empirically derived per-cell cost parameters of
// Section 5.1: m (merge comparison), b (hash build), p (hash probe), and t
// (cell transmission). Units are seconds per cell.
type CostParams struct {
	Merge    float64 // m
	Build    float64 // b — building a hash entry costs much more than probing
	Probe    float64 // p
	Transfer float64 // t
}

// DefaultParams returns parameters calibrated against this repository's
// join implementations on commodity hardware (see the calibration bench in
// internal/bench); they preserve the paper's orderings: b ≫ p, and network
// transfer dominating per-cell compute.
func DefaultParams() CostParams {
	return CostParams{
		Merge:    40e-9,
		Build:    120e-9,
		Probe:    30e-9,
		Transfer: 800e-9,
	}
}

// Problem is one physical planning instance: the slice statistics reported
// to the coordinator after slice mapping.
type Problem struct {
	K    int
	Algo join.Algorithm // merge or hash (nested loop is never planned; §5.1)
	// Left[i][j] and Right[i][j] hold s_ij per side: cells of join unit i
	// resident on node j in each input array.
	Left, Right [][]int64
	Params      CostParams

	// Derived (filled by NewProblem).
	N          int       // join units
	Sizes      [][]int64 // combined s_ij (both sides travel together)
	UnitTotal  []int64   // S_i
	LeftTotal  []int64   // per-unit left-side cells (hash join build/probe split)
	RightTotal []int64
	Comp       []float64 // C_i
}

// NewProblem derives the per-unit aggregates and algorithm-specific unit
// costs C_i (Section 5.1: C_i = m·S_i for merge, b·t_i + p·u_i for hash
// with t_i the smaller and u_i the larger side).
func NewProblem(k int, algo join.Algorithm, left, right [][]int64, params CostParams) (*Problem, error) {
	if k <= 0 {
		return nil, fmt.Errorf("physical: k = %d", k)
	}
	if algo == join.NestedLoop {
		return nil, fmt.Errorf("physical: nested loop join is never profitable and is not modeled (Section 5.1)")
	}
	if len(left) != len(right) {
		return nil, fmt.Errorf("physical: %d left units vs %d right units", len(left), len(right))
	}
	pr := &Problem{K: k, Algo: algo, Left: left, Right: right, Params: params, N: len(left)}
	pr.Sizes = make([][]int64, pr.N)
	pr.UnitTotal = make([]int64, pr.N)
	pr.LeftTotal = make([]int64, pr.N)
	pr.RightTotal = make([]int64, pr.N)
	pr.Comp = make([]float64, pr.N)
	for i := 0; i < pr.N; i++ {
		if len(left[i]) != k || len(right[i]) != k {
			return nil, fmt.Errorf("physical: unit %d has slice rows of length %d/%d, want %d",
				i, len(left[i]), len(right[i]), k)
		}
		row := make([]int64, k)
		for j := 0; j < k; j++ {
			row[j] = left[i][j] + right[i][j]
			pr.LeftTotal[i] += left[i][j]
			pr.RightTotal[i] += right[i][j]
		}
		pr.Sizes[i] = row
		pr.UnitTotal[i] = pr.LeftTotal[i] + pr.RightTotal[i]
		pr.Comp[i] = params.Unit(algo, pr.LeftTotal[i], pr.RightTotal[i])
	}
	return pr, nil
}

// Unit is the per-unit comparison cost C_i of a unit with left and right
// cells (Section 5.1): m·S_i for merge, b·t_i + p·u_i for hash with t_i
// the smaller and u_i the larger side, and p·l·r for nested loop, which
// probes every pair.
func (p CostParams) Unit(algo join.Algorithm, left, right int64) float64 {
	switch algo {
	case join.Merge:
		return p.Merge * float64(left+right)
	case join.Hash:
		small, large := min(left, right), max(left, right)
		return p.Build*float64(small) + p.Probe*float64(large)
	default:
		return p.Probe * float64(left) * float64(right)
	}
}

// Assignment maps each join unit to the node that will process it.
type Assignment []int

// Valid reports whether every unit is assigned to a node in range
// (Equation 4's Σ_j x_ij = 1 constraint).
func (pr *Problem) Valid(a Assignment) bool {
	if len(a) != pr.N {
		return false
	}
	for _, j := range a {
		if j < 0 || j >= pr.K {
			return false
		}
	}
	return true
}

// Breakdown is the modeled cost of an assignment, split by phase.
type Breakdown struct {
	MaxSendCells, MaxRecvCells int64   // worst per-node cells sent / received
	AlignTime                  float64 // max(s, r) · t
	CompareTime                float64 // max_j Σ_{i→j} C_i
	Total                      float64 // Equation 8
}

// Evaluate applies the analytical cost model (Equations 5–8) to a plan.
func (pr *Problem) Evaluate(a Assignment) Breakdown {
	send := make([]int64, pr.K)
	recv := make([]int64, pr.K)
	comp := make([]float64, pr.K)
	pr.accumulate(a, send, recv, comp)
	var bd Breakdown
	for j := 0; j < pr.K; j++ {
		if send[j] > bd.MaxSendCells {
			bd.MaxSendCells = send[j]
		}
		if recv[j] > bd.MaxRecvCells {
			bd.MaxRecvCells = recv[j]
		}
		if comp[j] > bd.CompareTime {
			bd.CompareTime = comp[j]
		}
	}
	move := bd.MaxSendCells
	if bd.MaxRecvCells > move {
		move = bd.MaxRecvCells
	}
	bd.AlignTime = float64(move) * pr.Params.Transfer
	bd.Total = bd.AlignTime + bd.CompareTime
	return bd
}

func (pr *Problem) accumulate(a Assignment, send, recv []int64, comp []float64) {
	for i := 0; i < pr.N; i++ {
		dest := a[i]
		comp[dest] += pr.Comp[i]
		for j, s := range pr.Sizes[i] {
			if j == dest {
				continue
			}
			send[j] += s
			recv[dest] += s
		}
	}
}

// LowerBound returns a bound no assignment's Equation-8 cost can beat,
// from two independent relaxations. Comparison: the worst per-node sum of
// C_i is at least the perfectly balanced share ΣC_i/K and at least the
// single largest C_i. Alignment: unit i lands on exactly one node, so at
// least S_i − max_j s_ij of its cells cross the network into that node;
// the worst per-node receive count is therefore at least the balanced
// share Σ_i minMoved_i / K and at least the largest single minMoved_i.
// Each relaxation bounds its phase for every feasible assignment, so the
// sum bounds the total. The bound is exact on uniform data (everything
// balances) and stays tight under skew, where the max-terms dominate —
// which is what makes it usable as the denominator of PredictedRegret.
func LowerBound(pr *Problem) float64 {
	var compSum, compMax float64
	var movedSum, movedMax int64
	for i := 0; i < pr.N; i++ {
		compSum += pr.Comp[i]
		if pr.Comp[i] > compMax {
			compMax = pr.Comp[i]
		}
		minMoved := pr.UnitTotal[i] - pr.Sizes[i][argmax(pr.Sizes[i])]
		movedSum += minMoved
		if minMoved > movedMax {
			movedMax = minMoved
		}
	}
	compLB := compSum / float64(pr.K)
	if compMax > compLB {
		compLB = compMax
	}
	recvLB := float64(movedSum) / float64(pr.K)
	if m := float64(movedMax); m > recvLB {
		recvLB = m
	}
	return recvLB*pr.Params.Transfer + compLB
}

// CellsMoved returns the total cells a plan ships over the network.
func (pr *Problem) CellsMoved(a Assignment) int64 {
	var moved int64
	for i := 0; i < pr.N; i++ {
		moved += pr.UnitTotal[i] - pr.Sizes[i][a[i]]
	}
	return moved
}

// SearchStats are planner-internal search counters, deterministic at every
// Workers setting (see the ilp package and TabuPlanner determinism notes).
// Fields irrelevant to a planner stay zero.
type SearchStats struct {
	ILPNodes  int64   `json:"ilp_nodes"`  // branch-and-bound nodes explored
	ILPPruned int64   `json:"ilp_pruned"` // subtrees cut by the lower bound
	ILPTasks  int     `json:"ilp_tasks"`  // size of the deterministic task decomposition
	SeedCost  float64 `json:"seed_cost"`  // greedy seed objective the search started from

	TabuRounds  int   `json:"tabu_rounds"`  // outer rebalancing rounds
	TabuMoves   int   `json:"tabu_moves"`   // accepted unit moves
	TabuWhatIfs int64 `json:"tabu_whatifs"` // candidate moves costed
}

// Result is a planner's output: the assignment, its modeled cost, and
// planning metadata.
type Result struct {
	Planner    string
	Assignment Assignment
	Model      Breakdown
	PlanTime   time.Duration
	Optimal    bool        // ILP solvers: search space exhausted within budget
	Search     SearchStats // deterministic search counters
	Regret     float64     // GreedyPlanner: the greedy plan's PredictedRegret
}

// Planner produces a join-unit-to-node assignment for a problem.
type Planner interface {
	Name() string
	Plan(pr *Problem) (Result, error)
}
