package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/workload"
)

// RealSweepConfig parameterizes the executor-level skew sweep (DESIGN's
// experiment E10): the Figure 7 experiment run through the full pipeline
// (real arrays, real slice mapping, real joins) instead of the modeled
// slice-statistics layer. Scaled down — real cells are materialized.
type RealSweepConfig struct {
	Nodes        int   // default 4
	Grid         int64 // chunks per dimension (default 16 -> 256 units)
	ChunkSide    int64 // coordinates per chunk per dimension (default 100)
	CellsPerSide int64 // default 200k
	Alphas       []float64
	Seed         int64
}

func (c RealSweepConfig) withDefaults() RealSweepConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Grid == 0 {
		c.Grid = 16
	}
	if c.ChunkSide == 0 {
		c.ChunkSide = 100
	}
	if c.CellsPerSide == 0 {
		c.CellsPerSide = 200_000
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0, 1.0, 2.0}
	}
	return c
}

// RealSkewSweep executes the merge-join skew sweep end to end for every
// planner: it validates that the modeled Figure 7 conclusions (baseline
// degrades with skew; skew-aware planners stay flat) hold when real cells
// flow through the system. Rows reuse the PhysMeasurement shape; matches
// are additionally verified identical across planners.
func RealSkewSweep(cfg RealSweepConfig) ([]PhysMeasurement, error) {
	cfg = cfg.withDefaults()
	planners := Config{}.withDefaults().Planners()
	pred := join.Predicate{
		{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}},
		{Left: join.Term{Name: "j"}, Right: join.Term{Name: "j"}},
	}
	algo := join.Merge
	var out []PhysMeasurement
	for _, alpha := range cfg.Alphas {
		rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(alpha*1000)))
		units := int(cfg.Grid * cfg.Grid)
		sizesA := workload.ZipfUnitSizes(units, alpha, cfg.CellsPerSide, rng)
		sizesB := workload.ZipfUnitSizes(units, alpha, cfg.CellsPerSide, rng)
		side := cfg.Grid * cfg.ChunkSide
		a, err := workload.Grid2D("A", side, cfg.ChunkSide, sizesA, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		b, err := workload.Grid2D("B", side, cfg.ChunkSide, sizesB, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		var wantMatches int64 = -1
		for _, name := range PlannerNames {
			c := cluster.MustNew(cfg.Nodes)
			c.Load(a.Clone(), cluster.RoundRobin)
			c.Load(b.Clone(), cluster.HashChunks)
			rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
				Planner:    planners[name],
				ForceAlgo:  &algo,
				QueryLabel: fmt.Sprintf("skew sweep α=%g [%s planner]", alpha, name),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: real sweep alpha=%v planner=%s: %w", alpha, name, err)
			}
			if wantMatches == -1 {
				wantMatches = rep.Matches
			} else if rep.Matches != wantMatches {
				return nil, fmt.Errorf("bench: planner %s computed %d matches, others %d",
					name, rep.Matches, wantMatches)
			}
			out = append(out, PhysMeasurement{
				Alpha:      alpha,
				Nodes:      cfg.Nodes,
				Planner:    name,
				PlanSec:    rep.PlanTime,
				AlignSec:   rep.AlignTime,
				CompSec:    rep.CompareTime,
				TotalSec:   rep.Total,
				CellsMoved: rep.CellsMoved,
			})
		}
	}
	return out, nil
}

func TestRealSkewSweepEndToEnd(t *testing.T) {
	rows, err := RealSkewSweep(RealSweepConfig{
		Grid:         8,
		CellsPerSide: 40_000,
		Alphas:       []float64{0, 1.5},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(PlannerNames) {
		t.Fatalf("%d rows", len(rows))
	}
	// The modeled Figure 7 conclusion must survive real execution: under
	// skew the skew-aware MBH beats the baseline on alignment.
	m := byPlanner(rows, 1.5)
	if m["MBH"].AlignSec >= m["B"].AlignSec {
		t.Errorf("real execution: MBH align %v not below baseline %v",
			m["MBH"].AlignSec, m["B"].AlignSec)
	}
	if m["MBH"].CellsMoved >= m["B"].CellsMoved {
		t.Errorf("real execution: MBH moved %d cells, baseline %d",
			m["MBH"].CellsMoved, m["B"].CellsMoved)
	}
}
