// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6). Each experiment has a
// typed runner returning the rows/series the paper reports, plus text
// renderers used by cmd/expdriver and the repository's benchmarks.
//
// Scale note: the paper ran 100 GB arrays on physical clusters; these
// experiments keep the paper's decision-space parameters (1024 join units,
// 4,050 geo units, 4 or 2–12 nodes, Zipf α sweeps) while scaling cell
// counts down. Durations are modeled seconds derived from the calibrated
// per-cell cost parameters and the discrete-event network simulation, so
// runs are deterministic; planning times are real wall-clock.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/workload"
)

// Config parameterizes the synthetic physical-planner experiments.
type Config struct {
	Nodes        int   // cluster size (default 4)
	Units        int   // join units (default 1024, as in Section 6.2)
	CellsPerSide int64 // cells per input array (default 4M)
	Seed         int64
	ILPBudget    time.Duration // solver budget (default 2s; paper used 5 min)
	// ILPMaxExplored caps the branch-and-bound search by explored nodes
	// instead of wall-clock alone. The cap is split into fixed per-task
	// quotas over the solver's deterministic task decomposition, so
	// truncated plans are machine-, load-, and Workers-independent.
	// ILPBudget remains a secondary safety cap. Zero leaves the planners
	// on wall-clock only.
	ILPMaxExplored int64
	// Workers is the ILP planners' worker count (their task queue); <= 1
	// keeps their search sequential. The other planners always are.
	Workers int
	Params  physical.CostParams
}

// coarseBins is the ILP-C planner's bin count, 75 as in Section 6.2.
const coarseBins = 75

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Units == 0 {
		c.Units = 1024
	}
	if c.CellsPerSide == 0 {
		c.CellsPerSide = 4 << 20
	}
	if c.ILPBudget == 0 {
		c.ILPBudget = 2 * time.Second
	}
	if c.Params == (physical.CostParams{}) {
		c.Params = physical.DefaultParams()
	}
	return c
}

// PlannerNames is the paper's planner line-up, in figure order.
var PlannerNames = []string{"B", "ILP", "ILP-C", "MBH", "Tabu"}

// Planners instantiates the five physical planners of Section 6.2.
func (c Config) Planners() map[string]physical.Planner {
	c = c.withDefaults()
	return map[string]physical.Planner{
		"B":     physical.BaselinePlanner{},
		"ILP":   physical.ILPPlanner{Budget: c.ILPBudget, MaxExplored: c.ILPMaxExplored, Workers: c.Workers},
		"ILP-C": physical.CoarseILPPlanner{Budget: c.ILPBudget, Bins: coarseBins, MaxExplored: c.ILPMaxExplored, Workers: c.Workers},
		"MBH":   physical.MinBandwidthPlanner{},
		"Tabu":  physical.TabuPlanner{},
	}
}

// PhysMeasurement is one bar of Figures 7, 8, and 10: a planner's query
// decomposed into planning, data alignment, and cell comparison.
type PhysMeasurement struct {
	Alpha      float64
	Nodes      int
	Planner    string
	PlanSec    float64 // real planning wall-time
	AlignSec   float64 // simulated shuffle makespan
	CompSec    float64 // slowest node's modeled comparison time
	TotalSec   float64
	ModelCost  float64 // the analytical model's estimate (Equation 8)
	CellsMoved int64
	Optimal    bool // ILP planners: proved optimal within budget
}

// runModeled plans and simulates one query at the physical layer: slice
// statistics in, phase timings out. The caller passes a simnet.Sim reused
// across the queries of a sweep, so the alignment simulation runs
// allocation-free in steady state; only scalars are taken from the
// simulation Result, which is invalidated by the next call.
func runModeled(cfg Config, algo join.Algorithm, left, right [][]int64, name string, planner physical.Planner, sim *simnet.Sim) (PhysMeasurement, error) {
	pr, err := physical.NewProblem(cfg.Nodes, algo, left, right, cfg.Params)
	if err != nil {
		return PhysMeasurement{}, err
	}
	res, err := planner.Plan(pr)
	if err != nil {
		return PhysMeasurement{}, err
	}

	alignSec, compSec, err := modeledPhases(cfg, pr, res.Assignment, sim)
	if err != nil {
		return PhysMeasurement{}, err
	}

	m := PhysMeasurement{
		Nodes:      cfg.Nodes,
		Planner:    name,
		PlanSec:    res.PlanTime.Seconds(),
		AlignSec:   alignSec,
		CompSec:    compSec,
		ModelCost:  res.Model.Total,
		CellsMoved: pr.CellsMoved(res.Assignment),
		Optimal:    res.Optimal,
	}
	m.TotalSec = m.PlanSec + m.AlignSec + m.CompSec
	return m, nil
}

// slicesFor generates the slice statistics for one skew level.
func slicesFor(cfg Config, algo join.Algorithm, alpha float64) (left, right [][]int64) {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(alpha*1000)))
	ls := workload.ZipfUnitSizes(cfg.Units, alpha, cfg.CellsPerSide, rng)
	rs := workload.ZipfUnitSizes(cfg.Units, alpha, cfg.CellsPerSide, rng)
	if algo == join.Merge {
		return workload.MergeSlices(ls, rs, cfg.Nodes, rng)
	}
	return workload.HashSlices(ls, rs, cfg.Nodes, alpha, rng)
}

// SkewSweep runs one join algorithm across the Zipf sweep of Section 6.2
// (Figures 7 and 8) for every planner.
func SkewSweep(cfg Config, algo join.Algorithm, alphas []float64) ([]PhysMeasurement, error) {
	cfg = cfg.withDefaults()
	if len(alphas) == 0 {
		alphas = []float64{0, 0.5, 1.0, 1.5, 2.0}
	}
	planners := cfg.Planners()
	var sim simnet.Sim
	var out []PhysMeasurement
	for _, alpha := range alphas {
		left, right := slicesFor(cfg, algo, alpha)
		for _, name := range PlannerNames {
			m, err := runModeled(cfg, algo, left, right, name, planners[name], &sim)
			if err != nil {
				return nil, err
			}
			m.Alpha = alpha
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig7 reproduces Figure 7: merge join durations across skew levels and
// planners. Expected shape: all planners comparable at α=0; MBH best
// overall for merge joins.
func Fig7(cfg Config) ([]PhysMeasurement, error) {
	return SkewSweep(cfg, join.Merge, nil)
}

// Fig8 reproduces Figure 8: hash join durations across skew levels and
// planners. Expected shape: Tabu best overall; MBH poor at slight skew
// (α=0.5); the ILP solver misses its budget at slight skew.
func Fig8(cfg Config) ([]PhysMeasurement, error) {
	return SkewSweep(cfg, join.Hash, nil)
}

// Fig10 reproduces Figure 10: merge join at α=1.0 scaling from 2 to 12
// nodes. Expected shape: skew-aware planners on 2 nodes beat the baseline
// on 12; MBH best as the cluster grows.
func Fig10(cfg Config, nodeCounts []int) ([]PhysMeasurement, error) {
	cfg = cfg.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 6, 8, 10, 12}
	}
	var sim simnet.Sim
	var out []PhysMeasurement
	for _, k := range nodeCounts {
		kcfg := cfg
		kcfg.Nodes = k
		planners := kcfg.Planners()
		left, right := slicesFor(kcfg, join.Merge, 1.0)
		for _, name := range PlannerNames {
			m, err := runModeled(kcfg, join.Merge, left, right, name, planners[name], &sim)
			if err != nil {
				return nil, err
			}
			m.Alpha = 1.0
			out = append(out, m)
		}
	}
	return out, nil
}

// BeyondPlanners is the planner subset the beyond-paper scale-out runs:
// the baseline and the min-bandwidth heuristic. The solver-based planners
// are excluded because at these cluster sizes the experiment stresses the
// simulated alignment of 100k+ transfers, not solver scaling.
var BeyondPlanners = []string{"B", "MBH"}

// Beyond pushes the Figure 10 scale-out past the paper's 12-node ceiling:
// merge join at α=1.0 on 16, 32, and 64 nodes with a doubled unit count,
// which at k=64 produces over 100k simulated transfers per query — the
// regime the indexed simnet scheduler was built for, where the original
// rescan-everything dispatch loop took minutes per query. Opt-in via
// `expdriver -exp beyond`; it is not part of `-exp all`.
func Beyond(cfg Config, nodeCounts []int) ([]PhysMeasurement, error) {
	if cfg.Units == 0 {
		cfg.Units = 2048
	}
	cfg = cfg.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{16, 32, 64}
	}
	var sim simnet.Sim
	var out []PhysMeasurement
	for _, k := range nodeCounts {
		kcfg := cfg
		kcfg.Nodes = k
		planners := kcfg.Planners()
		left, right := slicesFor(kcfg, join.Merge, 1.0)
		for _, name := range BeyondPlanners {
			m, err := runModeled(kcfg, join.Merge, left, right, name, planners[name], &sim)
			if err != nil {
				return nil, err
			}
			m.Alpha = 1.0
			out = append(out, m)
		}
	}
	return out, nil
}

// RenderPhys writes a figure's measurements as an aligned text table,
// grouped the way the paper's bar charts are.
func RenderPhys(w io.Writer, title, groupLabel string, rows []PhysMeasurement, group func(PhysMeasurement) string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-8s %-6s %12s %12s %12s %12s %14s %8s\n",
		groupLabel, "plan", "QueryPlan(s)", "DataAlign(s)", "CellComp(s)", "Total(s)", "ModelCost(s)", "Moved")
	last := ""
	for _, m := range rows {
		g := group(m)
		if g != last && last != "" {
			fmt.Fprintln(w)
		}
		last = g
		fmt.Fprintf(w, "%-8s %-6s %12.3f %12.3f %12.3f %12.3f %14.3f %8d\n",
			g, m.Planner, m.PlanSec, m.AlignSec, m.CompSec, m.TotalSec, m.ModelCost, m.CellsMoved)
	}
	fmt.Fprintln(w)
}

// GroupByAlpha and GroupByNodes are the two grouping modes of the figures.
func GroupByAlpha(m PhysMeasurement) string { return fmt.Sprintf("a=%.1f", m.Alpha) }

// GroupByNodes groups scale-out measurements.
func GroupByNodes(m PhysMeasurement) string { return fmt.Sprintf("k=%d", m.Nodes) }
