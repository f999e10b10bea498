// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each Benchmark runs the corresponding experiment end to end
// per iteration at a reduced scale (cmd/expdriver runs the full scale) and
// reports the experiment's headline quantity as a custom metric.
package shufflejoin

import (
	"math/rand"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/bench"
	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/simnet"
	"shufflejoin/internal/workload"
)

func benchCfg() bench.Config {
	return bench.Config{
		Units:        256,
		CellsPerSide: 1 << 20,
		ILPBudget:    100 * time.Millisecond,
		Seed:         1,
	}
}

func benchReal() bench.RealConfig {
	return bench.RealConfig{
		AISCells:   30_000,
		MODISCells: 45_000,
		ILPBudget:  100 * time.Millisecond,
		Seed:       1,
	}
}

// BenchmarkFig5LogicalPlans regenerates Figure 5: logical plan cost vs.
// real single-node duration across algorithms and selectivities, reporting
// the power-law r².
func BenchmarkFig5LogicalPlans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunLogical(bench.LogicalConfig{
			CellsPerSide:  8_000,
			Selectivities: []float64{0.01, 1, 10},
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		fit, err := bench.Fig5FitAdjusted(rows, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fit.R2, "r2")
	}
}

// BenchmarkFig6Selectivity regenerates Figure 6's series (duration vs.
// selectivity per plan), reporting the merge/hash duration ratio at the
// highest selectivity.
func BenchmarkFig6Selectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunLogical(bench.LogicalConfig{
			CellsPerSide:  8_000,
			Selectivities: []float64{0.01, 1, 10},
			Seed:          2,
		})
		if err != nil {
			b.Fatal(err)
		}
		var mergeHi, hashHi float64
		for _, m := range rows {
			if m.Selectivity == 10 {
				switch m.Algo {
				case join.Merge:
					mergeHi = m.DurationSec
				case join.Hash:
					hashHi = m.DurationSec
				}
			}
		}
		b.ReportMetric(hashHi/mergeHi, "hash/merge@sel10")
	}
}

// BenchmarkTable1Operators validates the Table-1 operator cost formulas
// against real operator runs, reporting the redim fit's r².
func BenchmarkTable1Operators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fits, err := bench.Table1Operators([]int64{10_000, 20_000, 40_000}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fits["redim"].R2, "redim-r2")
	}
}

// BenchmarkTable2ModelVerification regenerates Table 2: analytical model
// cost vs. simulated hash-join time for the cost-based planners, reporting
// the linear r² (paper: ~0.9).
func BenchmarkTable2ModelVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fit, err := bench.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fit.R2, "r2")
	}
}

// BenchmarkFig7MergeSkew regenerates Figure 7 (merge join across the skew
// sweep for all five planners), reporting baseline/MBH total ratio at
// α=2.0.
func BenchmarkFig7MergeSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var base, mbh float64
		for _, m := range rows {
			if m.Alpha == 2.0 {
				switch m.Planner {
				case "B":
					base = m.TotalSec
				case "MBH":
					mbh = m.TotalSec
				}
			}
		}
		b.ReportMetric(base/mbh, "baseline/MBH@a2")
	}
}

// BenchmarkFig8HashSkew regenerates Figure 8 (hash join across the skew
// sweep), reporting MBH/Tabu total ratio at α=0.5 — the paper's MBH
// collapse under slight skew.
func BenchmarkFig8HashSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var mbh, tabu float64
		for _, m := range rows {
			if m.Alpha == 0.5 {
				switch m.Planner {
				case "MBH":
					mbh = m.TotalSec
				case "Tabu":
					tabu = m.TotalSec
				}
			}
		}
		b.ReportMetric(mbh/tabu, "MBH/Tabu@a0.5")
	}
}

// BenchmarkFig9Beneficial regenerates Figure 9 (AIS ⋈ MODIS analogue,
// beneficial skew), reporting the end-to-end speedup over the baseline
// (paper: ~2.5x).
func BenchmarkFig9Beneficial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9(benchReal())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.Speedup(rows), "speedup")
		b.ReportMetric(bench.AlignReduction(rows), "align-reduction")
	}
}

// BenchmarkAdversarial regenerates the Section 6.3.2 experiment (two
// matched MODIS bands), reporting the exec-time spread across the
// non-solver planners (paper: all comparable).
func BenchmarkAdversarial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Adversarial(benchReal())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := -1.0, 0.0
		for _, m := range rows {
			if m.Planner == "ILP" || m.Planner == "ILP-C" {
				continue
			}
			et := m.AlignSec + m.CompSec
			if lo < 0 || et < lo {
				lo = et
			}
			if et > hi {
				hi = et
			}
		}
		b.ReportMetric(hi/lo, "max/min-exec")
	}
}

// BenchmarkFig10ScaleOut regenerates Figure 10 (2–12 node scale-out at
// α=1.0), reporting baseline@12 / MBH@2 — above 1 means two skew-aware
// nodes beat twelve naive ones.
func BenchmarkFig10ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(benchCfg(), []int{2, 12})
		if err != nil {
			b.Fatal(err)
		}
		var mbh2, base12 float64
		for _, m := range rows {
			if m.Nodes == 2 && m.Planner == "MBH" {
				mbh2 = m.AlignSec + m.CompSec
			}
			if m.Nodes == 12 && m.Planner == "B" {
				base12 = m.AlignSec + m.CompSec
			}
		}
		b.ReportMetric(base12/mbh2, "base@12/MBH@2")
	}
}

// ---- Ablation benchmarks (DESIGN.md Section 4) ----

// ablationProblem builds a moderately skewed hash-join planning instance.
func ablationProblem(b *testing.B) *physical.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	ls := workload.ZipfUnitSizes(512, 1.0, 2<<20, rng)
	rs := workload.ZipfUnitSizes(512, 1.0, 2<<20, rng)
	left, right := workload.HashSlices(ls, rs, 4, 1.0, rng)
	pr, err := physical.NewProblem(4, join.Hash, left, right, physical.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkAblationTabuList compares Algorithm 2's assignment-level tabu
// memory against plain improving-move hill climbing: the tabu list prunes
// revisits, bounding planning work (the paper's polynomial-search
// argument).
func BenchmarkAblationTabuList(b *testing.B) {
	pr := ablationProblem(b)
	b.Run("assignment-tabu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := physical.TabuPlanner{}.Plan(pr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Model.Total, "model-cost")
		}
	})
	b.Run("no-tabu-hillclimb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := physical.TabuPlanner{DisableTabuList: true}.Plan(pr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Model.Total, "model-cost")
		}
	})
}

// BenchmarkAblationLockScheduler compares the Section 3.4 greedy
// lock-skipping shuffle scheduler against naive FIFO sending on the same
// physical plan, reporting the makespan of each.
func BenchmarkAblationLockScheduler(b *testing.B) {
	pr := ablationProblem(b)
	res, err := physical.MinBandwidthPlanner{}.Plan(pr)
	if err != nil {
		b.Fatal(err)
	}
	var transfers []simnet.Transfer
	for u := 0; u < pr.N; u++ {
		for j := 0; j < pr.K; j++ {
			if j != res.Assignment[u] && pr.Sizes[u][j] > 0 {
				transfers = append(transfers, simnet.Transfer{From: j, To: res.Assignment[u], Cells: pr.Sizes[u][j]})
			}
		}
	}
	for _, mode := range []struct {
		name string
		s    simnet.Scheduling
	}{{"greedy-locks", simnet.GreedyLocks}, {"fifo", simnet.FIFONoSkip}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := simnet.Simulate(simnet.Config{
					Nodes:       pr.K,
					PerCellTime: pr.Params.Transfer,
					Scheduling:  mode.s,
				}, transfers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Makespan, "makespan-s")
			}
		})
	}
}

// BenchmarkAblationBuildSide compares building the hash map on the smaller
// vs. the larger join side — the asymmetry (b ≫ p) behind the hash-join
// unit cost C_i = b·t_i + p·u_i.
func BenchmarkAblationBuildSide(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	mk := func(n int) []join.Tuple {
		ts := make([]join.Tuple, n)
		for i := range ts {
			ts[i] = join.Tuple{Key: []array.Value{array.IntValue(rng.Int63n(int64(n)))}}
		}
		return ts
	}
	small, large := mk(2_000), mk(200_000)
	b.Run("build-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.HashJoinBuildSide(small, large, nil)
		}
	})
	b.Run("build-large", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.HashJoinBuildSide(large, small, nil)
		}
	})
}

// BenchmarkAblationCoarseBins sweeps the coarse solver's bin count around
// the paper's 75, trading solve speed against plan quality.
func BenchmarkAblationCoarseBins(b *testing.B) {
	pr := ablationProblem(b)
	for _, bins := range []int{8, 75, 300} {
		bins := bins
		b.Run(map[int]string{8: "bins-8", 75: "bins-75", 300: "bins-300"}[bins], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := physical.CoarseILPPlanner{Budget: 100 * time.Millisecond, Bins: bins}.Plan(pr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Model.Total, "model-cost")
			}
		})
	}
}

// BenchmarkAblationSortPlacement isolates the logical planner's lazy-sort
// rule: sorting the whole input up front (redim) vs. reassigning cells
// without sorting (rechunk) and sorting only a small output later.
func BenchmarkAblationSortPlacement(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := array.MustNew(array.MustParseSchema("A<v:int>[i=1,200000,6250]"))
	for i := int64(1); i <= 200_000; i++ {
		src.MustPut([]int64{i}, []array.Value{array.IntValue(rng.Int63n(200_000))})
	}
	src.SortAll()
	target := array.MustParseSchema("<i:int>[v=0,200000,6251]")
	smallOut := array.MustNew(array.MustParseSchema("O<x:int>[v=0,200000,6251]"))
	for i := int64(0); i < 2_000; i++ { // 1% selectivity output
		smallOut.MustPut([]int64{rng.Int63n(200_000)}, []array.Value{array.IntValue(i)})
	}
	b.Run("sort-before-redim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := array.Reorganize(src, target, false, nil)
			if err != nil {
				b.Fatal(err)
			}
			out.SortAll()
		}
	})
	b.Run("sort-after-rechunk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := array.Reorganize(src, target, false, nil); err != nil {
				b.Fatal(err)
			}
			smallOut.Clone().SortAll()
		}
	})
}
