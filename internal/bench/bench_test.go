package bench

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/join"
)

// BestPlannerPerGroup returns, per group, the planner with the lowest
// total.
func BestPlannerPerGroup(rows []PhysMeasurement, group func(PhysMeasurement) string) map[string]string {
	best := make(map[string]PhysMeasurement)
	for _, m := range rows {
		g := group(m)
		if cur, ok := best[g]; !ok || m.TotalSec < cur.TotalSec {
			best[g] = m
		}
	}
	out := make(map[string]string, len(best))
	for g, m := range best {
		out[g] = m.Planner
	}
	return out
}

// SortRows orders rows by (alpha, nodes, planner order).
func SortRows(rows []PhysMeasurement) {
	rank := make(map[string]int, len(PlannerNames))
	for i, n := range PlannerNames {
		rank[n] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Alpha != rows[j].Alpha {
			return rows[i].Alpha < rows[j].Alpha
		}
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes < rows[j].Nodes
		}
		return rank[rows[i].Planner] < rank[rows[j].Planner]
	})
}

// smallCfg keeps test runs fast while preserving the experiments' shapes.
func smallCfg() Config {
	return Config{
		Units:        128,
		CellsPerSide: 1 << 19,
		ILPBudget:    100 * time.Millisecond,
		Seed:         1,
	}
}

// execTotal is a planner's total excluding planning time — used when a
// shape claim is about plan quality rather than planning overhead.
func execTotal(m PhysMeasurement) float64 { return m.AlignSec + m.CompSec }

func byPlanner(rows []PhysMeasurement, alpha float64) map[string]PhysMeasurement {
	out := map[string]PhysMeasurement{}
	for _, m := range rows {
		if m.Alpha == alpha {
			out[m.Planner] = m
		}
	}
	return out
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*len(PlannerNames) {
		t.Fatalf("%d rows", len(rows))
	}
	// At uniform data all plans are of similar quality (excluding planning
	// overhead).
	u := byPlanner(rows, 0)
	for name, m := range u {
		if execTotal(m) > 2*execTotal(u["MBH"]) {
			t.Errorf("alpha=0: %s exec total %v more than 2x MBH %v", name, execTotal(m), execTotal(u["MBH"]))
		}
	}
	// Under skew, the skew-aware planners beat the baseline decisively.
	for _, alpha := range []float64{1.0, 1.5, 2.0} {
		m := byPlanner(rows, alpha)
		if execTotal(m["MBH"]) >= execTotal(m["B"]) {
			t.Errorf("alpha=%v: MBH (%v) did not beat baseline (%v)", alpha, execTotal(m["MBH"]), execTotal(m["B"]))
		}
	}
	// MBH is best or near-best including planning time (the paper's
	// merge-join conclusion).
	for _, alpha := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		m := byPlanner(rows, alpha)
		best := m["MBH"].TotalSec
		for _, other := range m {
			if other.TotalSec < best {
				best = other.TotalSec
			}
		}
		if m["MBH"].TotalSec > 1.1*best {
			t.Errorf("alpha=%v: MBH total %v not within 10%% of best %v", alpha, m["MBH"].TotalSec, best)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	rows, err := Fig8(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// MBH collapses at slight skew (alpha = 0.5).
	m := byPlanner(rows, 0.5)
	if execTotal(m["MBH"]) < 2*execTotal(m["Tabu"]) {
		t.Errorf("alpha=0.5: MBH (%v) should be far worse than Tabu (%v)",
			execTotal(m["MBH"]), execTotal(m["Tabu"]))
	}
	// The ILP solver cannot prove optimality at slight skew within budget.
	if m["ILP"].Optimal {
		t.Error("alpha=0.5: ILP should not converge within its budget")
	}
	// Tabu is best or near-best under moderate-to-high skew.
	for _, alpha := range []float64{1.0, 1.5, 2.0} {
		m := byPlanner(rows, alpha)
		best := m["Tabu"].TotalSec
		for _, other := range m {
			if other.TotalSec < best {
				best = other.TotalSec
			}
		}
		if m["Tabu"].TotalSec > 1.15*best {
			t.Errorf("alpha=%v: Tabu total %v not within 15%% of best %v", alpha, m["Tabu"].TotalSec, best)
		}
		if execTotal(m["Tabu"]) >= execTotal(m["B"]) {
			t.Errorf("alpha=%v: Tabu did not beat the baseline", alpha)
		}
	}
	// At uniform data everyone matches (identical even splits).
	u := byPlanner(rows, 0)
	if execTotal(u["MBH"]) != execTotal(u["B"]) || execTotal(u["Tabu"]) != execTotal(u["B"]) {
		t.Error("alpha=0: B, MBH, Tabu should produce identical plans on exactly uniform data")
	}
}

func TestTable2Correlation(t *testing.T) {
	rows, fit, err := Table2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	if fit.R2 < 0.8 {
		t.Errorf("model-vs-time r^2 = %v, want >= 0.8 (paper ~0.9)", fit.R2)
	}
	// Time decreases with skew (more locality to exploit), as in Table 2.
	avg := func(alpha float64) float64 {
		var s float64
		var n int
		for _, r := range rows {
			if r.Alpha == alpha {
				s += r.TimeSec
				n++
			}
		}
		return s / float64(n)
	}
	if !(avg(1.0) > avg(1.5) && avg(1.5) > avg(2.0)) {
		t.Errorf("times should fall with skew: %v %v %v", avg(1.0), avg(1.5), avg(2.0))
	}
}

func TestFig10Shapes(t *testing.T) {
	rows, err := Fig10(smallCfg(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	two := map[string]PhysMeasurement{}
	eight := map[string]PhysMeasurement{}
	for _, m := range rows {
		if m.Nodes == 2 {
			two[m.Planner] = m
		}
		if m.Nodes == 8 {
			eight[m.Planner] = m
		}
	}
	// The paper's headline: skew-aware planners on few nodes beat the
	// baseline on many.
	if execTotal(two["MBH"]) >= execTotal(eight["B"]) {
		t.Errorf("MBH@2 (%v) should beat baseline@8 (%v)",
			execTotal(two["MBH"]), execTotal(eight["B"]))
	}
	// MBH stays competitive at the larger scale.
	best := eight["MBH"].TotalSec
	for _, m := range eight {
		if m.TotalSec < best {
			best = m.TotalSec
		}
	}
	if eight["MBH"].TotalSec > 1.1*best {
		t.Errorf("MBH@8 total %v not within 10%% of best %v", eight["MBH"].TotalSec, best)
	}
}

func TestBeyondShapes(t *testing.T) {
	// Scaled-down beyond-paper sweep: the full 16–64 node version is
	// opt-in via expdriver. 16 nodes already exercises past-paper scale.
	rows, err := Beyond(smallCfg(), []int{13, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(BeyondPlanners) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(BeyondPlanners))
	}
	for _, m := range rows {
		if m.AlignSec <= 0 || m.CompSec <= 0 {
			t.Errorf("%s@%d: degenerate phase timings %+v", m.Planner, m.Nodes, m)
		}
	}
	// The skew-aware heuristic must keep beating the baseline out here.
	for _, k := range []int{13, 16} {
		var b, mbh PhysMeasurement
		for _, m := range rows {
			if m.Nodes == k {
				if m.Planner == "B" {
					b = m
				} else if m.Planner == "MBH" {
					mbh = m
				}
			}
		}
		if execTotal(mbh) >= execTotal(b) {
			t.Errorf("k=%d: MBH (%v) did not beat baseline (%v)", k, execTotal(mbh), execTotal(b))
		}
	}
}

func smallReal() RealConfig {
	return RealConfig{AISCells: 30_000, MODISCells: 45_000, ILPBudget: 100 * time.Millisecond, Seed: 1}
}

func TestFig9Shapes(t *testing.T) {
	rows, err := Fig9(smallReal())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PlannerNames) {
		t.Fatalf("%d rows", len(rows))
	}
	// All planners compute the same join.
	for _, m := range rows[1:] {
		if m.Matches != rows[0].Matches {
			t.Fatalf("match counts differ: %d vs %d", m.Matches, rows[0].Matches)
		}
	}
	if s := Speedup(rows); s < 1.5 {
		t.Errorf("beneficial-skew speedup = %.2f, want >= 1.5 (paper ~2.5)", s)
	}
	if r := AlignReduction(rows); r < 3 {
		t.Errorf("alignment reduction = %.2f, want >= 3 (paper ~20)", r)
	}
}

func TestAdversarialParity(t *testing.T) {
	rows, err := Adversarial(smallReal())
	if err != nil {
		t.Fatal(err)
	}
	// Comparable execution (excluding planning overhead) across planners.
	get := func(name string) RealMeasurement {
		for _, m := range rows {
			if m.Planner == name {
				return m
			}
		}
		t.Fatalf("missing planner %s", name)
		return RealMeasurement{}
	}
	lo, hi := -1.0, 0.0
	for _, name := range []string{"B", "MBH", "Tabu"} {
		m := get(name)
		et := m.AlignSec + m.CompSec
		if lo < 0 || et < lo {
			lo = et
		}
		if et > hi {
			hi = et
		}
	}
	if hi > 1.6*lo {
		t.Errorf("adversarial skew: exec totals spread %v..%v exceed 1.6x", lo, hi)
	}
}

func TestRunLogicalShapes(t *testing.T) {
	rows, err := RunLogical(LogicalConfig{CellsPerSide: 16000, Selectivities: []float64{0.01, 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var nl, merge, hash LogicalMeasurement
	for _, m := range rows {
		if m.Selectivity != 1 {
			continue
		}
		switch m.Algo {
		case join.NestedLoop:
			nl = m
		case join.Merge:
			merge = m
		case join.Hash:
			hash = m
		}
	}
	// Match counts track the requested selectivity.
	if want := int64(32000); merge.Matches < want*95/100 || merge.Matches > want*105/100 {
		t.Errorf("sel=1 matches = %d, want ~%d", merge.Matches, want)
	}
	if nl.Matches != merge.Matches || hash.Matches != merge.Matches {
		t.Error("algorithms disagree on match count")
	}
	// Nested loop is measurably worst at selectivity 1 (loose margins:
	// wall-clock at this scale is noisy under parallel test load).
	if nl.DurationSec < 1.3*merge.DurationSec || nl.DurationSec < 1.1*hash.DurationSec {
		t.Errorf("nested loop (%.3fs) should be clearly slower than merge (%.3fs) and hash (%.3fs)",
			nl.DurationSec, merge.DurationSec, hash.DurationSec)
	}
	// Cost-model decisions: hash plan cheapest at sel 0.01, merge at 1.
	costs := map[float64]map[join.Algorithm]float64{}
	for _, m := range rows {
		if costs[m.Selectivity] == nil {
			costs[m.Selectivity] = map[join.Algorithm]float64{}
		}
		costs[m.Selectivity][m.Algo] = m.PlanCost
	}
	if !(costs[0.01][join.Hash] < costs[0.01][join.Merge]) {
		t.Error("sel=0.01: hash plan should cost less than merge")
	}
	if !(costs[1][join.Merge] < costs[1][join.NestedLoop]) {
		t.Error("sel=1: merge plan should cost less than nested loop")
	}
}

func TestRenderers(t *testing.T) {
	cfg := Config{Units: 16, CellsPerSide: 1 << 12, ILPBudget: 20 * time.Millisecond, Seed: 2}
	rows, err := SkewSweep(cfg, join.Merge, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderPhys(&buf, "T", "skew", rows, GroupByAlpha)
	if !strings.Contains(buf.String(), "DataAlign(s)") || !strings.Contains(buf.String(), "a=1.0") {
		t.Errorf("RenderPhys output missing fields:\n%s", buf.String())
	}
	t2, fit, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderTable2(&buf, t2, fit)
	if !strings.Contains(buf.String(), "r^2") {
		t.Error("RenderTable2 missing fit line")
	}
	SortRows(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i].Alpha < rows[i-1].Alpha {
			t.Fatal("SortRows did not order by alpha")
		}
	}
	best := BestPlannerPerGroup(rows, GroupByAlpha)
	if len(best) != 2 {
		t.Errorf("BestPlannerPerGroup = %v", best)
	}
}

func TestCalibrateOrderings(t *testing.T) {
	p := Calibrate(50_000, 1)
	if p.Merge <= 0 || p.Build <= 0 || p.Probe <= 0 || p.Transfer <= 0 {
		t.Fatalf("non-positive parameters: %+v", p)
	}
	// The paper's regime: building a hash entry costs much more than
	// probing, and network transfer dominates per-cell compute.
	if p.Build < p.Probe {
		t.Errorf("build (%v) should cost at least probe (%v)", p.Build, p.Probe)
	}
	if p.Transfer < p.Merge {
		t.Errorf("transfer (%v) should dominate merge (%v)", p.Transfer, p.Merge)
	}
	// Sanity: parameters are nanosecond-scale per cell on any machine.
	if p.Merge > 1e-5 {
		t.Errorf("merge per-cell cost %v implausibly high", p.Merge)
	}
}

func TestTable1OperatorsSmall(t *testing.T) {
	rows, fits, err := Table1Operators([]int64{10_000, 40_000, 160_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 ops x 3 sizes
		t.Fatalf("%d rows", len(rows))
	}
	for _, op := range []string{"redim", "rechunk", "sort", "hash"} {
		if _, ok := fits[op]; !ok {
			t.Fatalf("no fit for %s", op)
		}
	}
	// Only the heaviest operator gets a timing-shape assertion (small runs
	// are noisy under parallel test load): redim time must grow with cost.
	if fits["redim"].Slope <= 0 {
		t.Errorf("redim: non-positive slope %v (time must grow with cost)", fits["redim"].Slope)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows, fits)
	if !strings.Contains(buf.String(), "redim") {
		t.Error("RenderTable1 missing rows")
	}
}

func TestRenderRealAndLogical(t *testing.T) {
	var buf bytes.Buffer
	RenderReal(&buf, "T", []RealMeasurement{{Planner: "B", TotalSec: 1, Matches: 5}})
	if !strings.Contains(buf.String(), "B") {
		t.Error("RenderReal missing row")
	}
	rows := []LogicalMeasurement{
		{Algo: join.Hash, Selectivity: 1, PlanCost: 10, DurationSec: 0.1, Matches: 5, Plan: "p"},
		{Algo: join.Merge, Selectivity: 1, PlanCost: 20, DurationSec: 0.2, Matches: 5, Plan: "q"},
		{Algo: join.NestedLoop, Selectivity: 2, PlanCost: 400, DurationSec: 0.9, Matches: 9, Plan: "r"},
	}
	fit, err := Fig5Fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	RenderLogical(&buf, rows, fit)
	for _, want := range []string{"Figure 5", "Figure 6", "r^2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("RenderLogical missing %q", want)
		}
	}
	mc := MinCostIsFastest(rows)
	if !mc[1] {
		t.Errorf("MinCostIsFastest = %v", mc)
	}
	if s := Speedup(nil); s != 0 {
		t.Errorf("Speedup(nil) = %v", s)
	}
	if r := AlignReduction(nil); r != 0 {
		t.Errorf("AlignReduction(nil) = %v", r)
	}
}

func TestPlanQualityShapes(t *testing.T) {
	rows, err := PlanQuality(smallCfg(), []float64{0, 1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2 { // three skew levels x two join algorithms
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Regret < 0 {
			t.Errorf("a=%.1f %s: regret %v < 0 (greedy cost below the lower bound)", r.Alpha, r.Algo, r.Regret)
		}
		if r.FellBack != (r.Regret > 0.10) {
			t.Errorf("a=%.1f %s: FellBack=%v inconsistent with regret %v", r.Alpha, r.Algo, r.FellBack, r.Regret)
		}
		if r.GreedyMakespanSec <= 0 || r.FullMakespanSec <= 0 {
			t.Errorf("a=%.1f %s: non-positive makespans %v / %v", r.Alpha, r.Algo, r.GreedyMakespanSec, r.FullMakespanSec)
		}
		// The greedy fast path must be decisively cheaper to run than the
		// budgeted ILP, and a cache hit cheaper still.
		if r.GreedyPlanMicros > r.FullPlanMicros/2 {
			t.Errorf("a=%.1f %s: greedy planning %vus not well under full %vus", r.Alpha, r.Algo, r.GreedyPlanMicros, r.FullPlanMicros)
		}
	}
	// The acceptance criteria (also `expdriver -exp planquality -gate`).
	if err := PlanQualityGate(rows); err != nil {
		t.Error(err)
	}
	if err := PlanQualityGate(nil); err == nil {
		t.Error("empty sweep should fail the gate")
	}
	s := SummarizePlanQuality(rows)
	if s.Fallbacks == 0 && s.MaxRatioKept == 0 {
		t.Error("summary is empty")
	}
	var buf bytes.Buffer
	RenderPlanQuality(&buf, rows)
	if !strings.Contains(buf.String(), "fallback") {
		t.Error("render output incomplete")
	}
}
