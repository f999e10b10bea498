package logical

import (
	"math"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/stats"
)

// fig5Sources builds the Section 6.1 experiment schemas:
// A<v:int>[i=1,128M,4M], B<w:int>[j=1,128M,4M], C<i:int,j:int>[v=1,128M,4M]
// with the A:A predicate A.v = B.w.
func fig5Sources(t *testing.T) *ResolvedSources {
	t.Helper()
	a := array.MustParseSchema("A<v:int>[i=1,128M,4M]")
	b := array.MustParseSchema("B<w:int>[j=1,128M,4M]")
	c := array.MustParseSchema("C<i:int, j:int>[v=1,128M,4M]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	src, err := ResolveSources(a, b, c, pred)
	if err != nil {
		t.Fatalf("ResolveSources: %v", err)
	}
	return src
}

// ddSources builds a same-shape D:D join: A.i = B.i AND A.j = B.j.
func ddSources(t *testing.T) *ResolvedSources {
	t.Helper()
	a := array.MustParseSchema("A<v1:int, v2:int>[i=1,64M,2M, j=1,64M,2M]")
	b := array.MustParseSchema("B<v1:int, v2:int>[i=1,64M,2M, j=1,64M,2M]")
	pred := join.Predicate{
		{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}},
		{Left: join.Term{Name: "j"}, Right: join.Term{Name: "j"}},
	}
	src, err := ResolveSources(a, b, nil, pred)
	if err != nil {
		t.Fatalf("ResolveSources: %v", err)
	}
	return src
}

func infer(t *testing.T, src *ResolvedSources) *JoinSchema {
	t.Helper()
	js, err := InferJoinSchema(src, InferOptions{})
	if err != nil {
		t.Fatalf("InferJoinSchema: %v", err)
	}
	return js
}

// TestPredicateClasses pins the fixtures: fig5 joins attributes with
// attributes (A:A), dd dimensions with dimensions (D:D).
func TestPredicateClasses(t *testing.T) {
	for _, c := range []struct {
		name  string
		src   *ResolvedSources
		isDim bool
	}{{"fig5", fig5Sources(t), false}, {"dd", ddSources(t), true}} {
		rp := c.src.Resolved
		for i := range rp.Left {
			if rp.Left[i].IsDim != c.isDim || rp.Right[i].IsDim != c.isDim {
				t.Errorf("%s pair %d: IsDim %v/%v, want %v", c.name, i, rp.Left[i].IsDim, rp.Right[i].IsDim, c.isDim)
			}
		}
	}
}

func TestInferJoinSchemaAACopiesDestinationDim(t *testing.T) {
	js := infer(t, fig5Sources(t))
	if len(js.Dims) != 1 {
		t.Fatalf("J has %d dims, want 1", len(js.Dims))
	}
	d := js.Dims[0]
	if d.Name != "v" || d.Start != 1 || d.End != 128000000 || d.ChunkInterval != 4000000 {
		t.Errorf("J dim = %+v, want v=[1,128M,4M] copied from C", d)
	}
	if js.NumChunkUnits() != 32 {
		t.Errorf("NumChunkUnits = %d, want 32", js.NumChunkUnits())
	}
	if js.LeftConforms() || js.RightConforms() {
		t.Error("A:A inputs should not conform to J (attribute must become a dimension)")
	}
	if !js.OutConforms() {
		t.Error("J should conform to C")
	}
}

func TestInferJoinSchemaDDCopiesSourceDims(t *testing.T) {
	js := infer(t, ddSources(t))
	if len(js.Dims) != 2 {
		t.Fatalf("J has %d dims, want 2", len(js.Dims))
	}
	if !js.LeftConforms() || !js.RightConforms() {
		t.Error("same-shape D:D inputs should conform to J")
	}
	if js.NumChunkUnits() != 32*32 {
		t.Errorf("NumChunkUnits = %d, want 1024", js.NumChunkUnits())
	}
}

func TestInferJoinSchemaUsesUnionAndLargestInterval(t *testing.T) {
	a := array.MustParseSchema("A<v:int>[i=1,100,10]")
	b := array.MustParseSchema("B<w:int>[i=51,200,25]")
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	src, err := ResolveSources(a, b, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	js := infer(t, src)
	d := js.Dims[0]
	if d.Start != 1 || d.End != 200 {
		t.Errorf("range = [%d,%d], want union [1,200]", d.Start, d.End)
	}
	if d.ChunkInterval != 25 {
		t.Errorf("interval = %d, want largest (25)", d.ChunkInterval)
	}
}

func TestInferJoinSchemaFromHistogram(t *testing.T) {
	a := array.MustParseSchema("A<v:int>[i=1,1000,100]")
	b := array.MustParseSchema("B<w:int>[j=1,1000,100]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	src, err := ResolveSources(a, b, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	hist := func(arrayName, attrName string) *stats.Histogram {
		h := stats.NewHistogram(0, 499, 10)
		for i := 0; i < 1000; i++ {
			h.Add(float64(i % 500))
		}
		return h
	}
	js, err := InferJoinSchema(src, InferOptions{AttrHistogram: hist, TargetCellsPerChunk: 250})
	if err != nil {
		t.Fatal(err)
	}
	d := js.Dims[0]
	if d.Start != 0 || d.End != 499 {
		t.Errorf("inferred range = [%d,%d], want [0,499]", d.Start, d.End)
	}
	// 2000 total observations at 250 per chunk -> 8 chunks over extent 500 -> 63.
	if d.ChunkInterval != 63 {
		t.Errorf("inferred interval = %d, want 63", d.ChunkInterval)
	}
}

func TestInferJoinSchemaNeedsHistogram(t *testing.T) {
	a := array.MustParseSchema("A<v:int>[i=1,1000,100]")
	b := array.MustParseSchema("B<w:int>[j=1,1000,100]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	src, err := ResolveSources(a, b, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferJoinSchema(src, InferOptions{}); err == nil {
		t.Error("expected error without histograms for pure A:A inference")
	}
}

func TestInferJoinSchemaStringKeyHasNoDims(t *testing.T) {
	a := array.MustParseSchema("A<v:string>[i=1,100,10]")
	b := array.MustParseSchema("B<w:string>[j=1,100,10]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	src, err := ResolveSources(a, b, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	js, err := InferJoinSchema(src, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Dims) != 0 {
		t.Errorf("string keys should produce no join dims, got %v", js.Dims)
	}
	// Only hash plans should be possible.
	plans, err := Enumerate(js, ArrayStats{1000, 10}, ArrayStats{1000, 10}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Units != shuffle.HashUnits {
			t.Errorf("plan %s uses chunk units with no join dims", p.Describe())
		}
	}
}

func TestDefaultOutputSchemaNaturalJoin(t *testing.T) {
	src := ddSources(t)
	out := src.Out
	// Eq. 3: right predicate dims merge away; i and j appear once.
	if len(out.Dims) != 2 || out.Dims[0].Name != "i" || out.Dims[1].Name != "j" {
		t.Errorf("default out dims = %v", out.Dims)
	}
	// Attrs: A's v1,v2 kept; B's duplicate-named attrs dropped (name union).
	if len(out.Attrs) != 2 {
		t.Errorf("default out attrs = %v", out.Attrs)
	}
}

func TestCarrySets(t *testing.T) {
	// Only attributes needed by the output or predicate travel.
	a := array.MustParseSchema("A<keep:int, drop:float>[i=1,100,10]")
	b := array.MustParseSchema("B<w:int, also:int>[j=1,100,10]")
	out := array.MustParseSchema("T<keep:int>[i=1,100,10]")
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "w"}}}
	src, err := ResolveSources(a, b, out, pred)
	if err != nil {
		t.Fatal(err)
	}
	js := infer(t, src)
	if len(js.LeftCarry) != 1 || js.LeftCarry[0] != 0 {
		t.Errorf("LeftCarry = %v, want [0] (keep)", js.LeftCarry)
	}
	// Right carries w (predicate attr); "also" is not in τ.
	if len(js.RightCarry) != 1 || js.RightCarry[0] != 0 {
		t.Errorf("RightCarry = %v, want [0] (w)", js.RightCarry)
	}
}

func fig5Stats() (ArrayStats, ArrayStats) {
	// Two 64 MB arrays: 8M cells each over 32 chunks.
	return ArrayStats{Cells: 8 << 20, Chunks: 32}, ArrayStats{Cells: 8 << 20, Chunks: 32}
}

func planFor(t *testing.T, plans []Plan, algo join.Algorithm) *Plan {
	t.Helper()
	best := -1
	for i := range plans {
		if plans[i].Algo == algo {
			if best == -1 || plans[i].Cost < plans[best].Cost {
				best = i
			}
		}
	}
	if best == -1 {
		t.Fatalf("no %v plan found", algo)
	}
	return &plans[best]
}

// findPlan locates an exact operator combination in the enumeration.
func findPlan(plans []Plan, alpha, beta AlignOp, algo join.Algorithm, out OutOp) *Plan {
	for i := range plans {
		p := &plans[i]
		if p.Alpha == alpha && p.Beta == beta && p.Algo == algo && p.Out == out {
			return p
		}
	}
	return nil
}

func TestEnumerateContainsPaperPlans(t *testing.T) {
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Merge plan: mergeJoin(redim(A,C), redim(B,C)) with free out scan.
	merge := findPlan(plans, OpRedim, OpRedim, join.Merge, OutScan)
	if merge == nil {
		t.Fatal("paper's merge plan not enumerated")
	}
	// Hash plan: redim(hashJoin(hash(A), hash(B)), C).
	hash := findPlan(plans, OpHash, OpHash, join.Hash, OutRedim)
	if hash == nil {
		t.Fatal("paper's hash plan not enumerated")
	}
	if !strings.Contains(hash.Describe(), "hashJoin(hash(A), hash(B))") {
		t.Errorf("Describe = %s", hash.Describe())
	}
	// The rechunk variant of Section 4 ("sort the fewer output cells
	// instead of the input cells") must also be found, and since it skips
	// the output redistribution it costs no more than the bucket plan.
	rechunk := findPlan(plans, OpRechunk, OpRechunk, join.Hash, OutSort)
	if rechunk == nil {
		t.Fatal("rechunk+sort hash plan not enumerated")
	}
	if rechunk.Cost > hash.Cost {
		t.Errorf("rechunk plan (%.3g) should not cost more than bucket plan (%.3g)",
			rechunk.Cost, hash.Cost)
	}
}

func TestSelectivityCrossover(t *testing.T) {
	// Figure 6's shape: hash wins at low selectivity, merge from ~1 up, and
	// nested loop is never the minimum.
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	for _, sel := range []float64{0.01, 0.1, 1, 10, 100} {
		plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: sel})
		if err != nil {
			t.Fatal(err)
		}
		best := plans[0]
		if best.Algo == join.NestedLoop {
			t.Errorf("sel=%v: nested loop chosen as best", sel)
		}
		switch {
		case sel < 1 && best.Algo != join.Hash:
			t.Errorf("sel=%v: best = %v (%s), want hash", sel, best.Algo, best.Describe())
		case sel >= 1 && best.Algo != join.Merge:
			t.Errorf("sel=%v: best = %v (%s), want merge", sel, best.Algo, best.Describe())
		}
	}
}

func TestMergeGapGrowsWithSelectivity(t *testing.T) {
	// At the largest output cardinality the merge plan should beat hash by
	// a wide margin (35x in the paper; we require >5x in cost units).
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: 100})
	if err != nil {
		t.Fatal(err)
	}
	merge, hash := planFor(t, plans, join.Merge), planFor(t, plans, join.Hash)
	if ratio := hash.Cost / merge.Cost; ratio < 5 {
		t.Errorf("hash/merge cost ratio = %.1f, want > 5", ratio)
	}
}

func TestDDPrefersScanMergePlan(t *testing.T) {
	// A same-shape D:D join needs no reorganization: the favored plan is
	// mergeJoin(A, B) with scans everywhere.
	js := infer(t, ddSources(t))
	plans, err := Enumerate(js, ArrayStats{1 << 20, 1024}, ArrayStats{1 << 20, 1024}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := plans[0]
	if best.Alpha != OpScan || best.Beta != OpScan || best.Algo != join.Merge || best.Out != OutScan {
		t.Errorf("best D:D plan = %s, want pure scan merge", best.Describe())
	}
	if best.AlignCost != 0 || best.OutCost != 0 {
		t.Errorf("scan merge should have zero align/out cost: %+v", best)
	}
}

func TestValidateRejectsMixedUnits(t *testing.T) {
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, _ := Enumerate(js, sa, sb, PlanOptions{})
	for _, p := range plans {
		aHash := p.Alpha == OpHash
		bHash := p.Beta == OpHash
		if aHash != bHash {
			t.Errorf("mixed-unit plan survived validation: %s", p.Describe())
		}
		if p.Algo == join.Merge && (p.Alpha == OpRechunk || p.Alpha == OpHash || p.Beta == OpRechunk || p.Beta == OpHash) {
			t.Errorf("merge over unordered input survived: %s", p.Describe())
		}
		if p.Algo != join.Merge && p.Out == OutScan && len(js.Pred.Out.Dims) > 0 {
			t.Errorf("scan after unordered join into dimensioned output: %s", p.Describe())
		}
	}
}

func TestScanRequiresConformance(t *testing.T) {
	// In the A:A query neither input conforms, so no plan may scan.
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, _ := Enumerate(js, sa, sb, PlanOptions{})
	for _, p := range plans {
		if p.Alpha == OpScan || p.Beta == OpScan {
			t.Errorf("non-conforming input scanned: %s", p.Describe())
		}
	}
}

func TestKNodesDividesCost(t *testing.T) {
	js := infer(t, ddSources(t))
	sa := ArrayStats{1 << 20, 1024}
	p1, err := Enumerate(js, sa, sa, PlanOptions{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := Enumerate(js, sa, sa, PlanOptions{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p4[0].Cost-p1[0].Cost/4) > 1e-6*p1[0].Cost {
		t.Errorf("4-node cost %v, want %v/4", p4[0].Cost, p1[0].Cost)
	}
}

func TestEnumerateSortedByCost(t *testing.T) {
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Cost < plans[i-1].Cost {
			t.Fatal("plans not sorted by cost")
		}
	}
}

func TestUnitSpecForHashPlan(t *testing.T) {
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	plans, _ := Enumerate(js, sa, sb, PlanOptions{Selectivity: 0.01})
	hash := findPlan(plans, OpHash, OpHash, join.Hash, OutRedim)
	if hash == nil {
		t.Fatal("bucket hash plan not enumerated")
	}
	spec, l, r := UnitSpecFor(hash)
	if buckets := js.NumChunkUnits(); buckets <= 0 || spec.Kind != shuffle.HashUnits || spec.NumUnits != buckets {
		t.Errorf("spec = %+v", spec)
	}
	if len(l.KeyRefs) != 1 || l.KeyRefs[0].Name != "v" {
		t.Errorf("left key refs = %+v", l.KeyRefs)
	}
	if len(r.KeyRefs) != 1 || r.KeyRefs[0].Name != "w" {
		t.Errorf("right key refs = %+v", r.KeyRefs)
	}
}

func TestUnitSpecForMergePlan(t *testing.T) {
	js := infer(t, ddSources(t))
	plans, err := Enumerate(js, ArrayStats{1000, 16}, ArrayStats{1000, 16}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, l, _ := UnitSpecFor(&plans[0])
	if spec.Kind != shuffle.ChunkUnits || len(spec.JoinDims) != 2 {
		t.Errorf("spec = %+v", spec)
	}
	if len(l.DimRefs) != 2 || !l.DimRefs[0].IsDim {
		t.Errorf("left dim refs = %+v", l.DimRefs)
	}
}

func TestNestedLoopAlwaysCostliest(t *testing.T) {
	// Section 4/6.1: nested loop is never profitable. Verify its best plan
	// is costlier than both alternatives at every tested selectivity.
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	for _, sel := range []float64{0.01, 1, 100} {
		plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: sel})
		if err != nil {
			t.Fatal(err)
		}
		nl := planFor(t, plans, join.NestedLoop)
		h := planFor(t, plans, join.Hash)
		m := planFor(t, plans, join.Merge)
		if nl.Cost <= h.Cost || nl.Cost <= m.Cost {
			t.Errorf("sel=%v: nested loop cost %.3g not dominated (hash %.3g, merge %.3g)",
				sel, nl.Cost, h.Cost, m.Cost)
		}
	}
}

// Property: output-handling cost never decreases with selectivity, and the
// best plan's cost is the minimum of the enumeration.
func TestCostMonotonicityProperty(t *testing.T) {
	js := infer(t, fig5Sources(t))
	sa, sb := fig5Stats()
	prevBest := 0.0
	for _, sel := range []float64{0.01, 0.1, 1, 10, 100} {
		plans, err := Enumerate(js, sa, sb, PlanOptions{Selectivity: sel})
		if err != nil {
			t.Fatal(err)
		}
		best := plans[0].Cost
		for _, p := range plans {
			if p.Cost < best {
				t.Fatalf("sel=%v: enumeration not sorted", sel)
			}
			if p.OutCost < 0 || p.AlignCost < 0 || p.CompareCost < 0 {
				t.Fatalf("sel=%v: negative cost component %+v", sel, p)
			}
		}
		if best < prevBest {
			t.Errorf("sel=%v: best cost %v fell below previous %v (larger output cannot be cheaper)",
				sel, best, prevBest)
		}
		prevBest = best
	}
}

func TestEnumerateZeroCells(t *testing.T) {
	js := infer(t, ddSources(t))
	plans, err := Enumerate(js, ArrayStats{0, 0}, ArrayStats{0, 0}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Cost != 0 && p.Algo != join.NestedLoop {
			if p.Cost < 0 {
				t.Fatalf("negative cost for %s", p.Describe())
			}
		}
	}
}
