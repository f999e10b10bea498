package pipeline_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// TestStreamingMatchesReference is the pipeline's differential test: the
// engine — streaming data plane, units compared on parallel workers and
// folded — is bit-identical to the test-only reference executor
// (reference_test.go: materialized tuples, whole-unit compare on one
// goroutine in node and assignment order) in output cells, join statistics, modeled times, and
// per-node skew diagnostics, for every output shape and algorithm at
// every node count and Parallelism setting. (Trace fingerprints are not
// compared: the reference records no spans.)
func TestStreamingMatchesReference(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	attrPred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	dimPred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "j"}}}
	allAlgos := []join.Algorithm{join.Hash, join.Merge, join.NestedLoop}

	cases := []struct {
		name  string
		pred  join.Predicate
		out   *array.Schema
		algos []join.Algorithm
	}{
		{"attr-join-dim-output", attrPred, array.MustParseSchema("T<i:int, j:int>[v=0,29,6]"), allAlgos},
		// The dim:dim plan space does not enumerate every algorithm.
		{"dim-join-default-output", dimPred, nil, []join.Algorithm{join.Merge}},
		// Synthetic row coordinates: fold's renumbering against the
		// reference's direct stride-K numbering.
		{"attr-join-row-output", attrPred, array.MustParseSchema("T<i:int, j:int>[]"), allAlgos},
	}

	for _, tc := range cases {
		for _, algo := range tc.algos {
			algo := algo
			opts := func(par int) pipeline.Options {
				return pipeline.Options{
					ForceAlgo:   &algo,
					Selectivity: 0.5,
					Parallelism: par,
				}
			}
			// One reference run per shape, algorithm and node count; every
			// engine configuration must reproduce it exactly. On one node a
			// unit's side is one span, read in place; on more, a unit
			// assembled past node 0 has several, which are copied.
			for _, k := range []int{1, 2, 4} {
				want, err := pipeline.RunReference(newCluster(t, k, a.Clone(), b.Clone()), "A", "B", tc.pred, tc.out, opts(1))
				if err != nil {
					t.Fatalf("RunReference(%s, %v, k=%d): %v", tc.name, algo, k, err)
				}
				if want.Matches == 0 {
					t.Fatalf("%s/%v: reference found no matches; fixture broken", tc.name, algo)
				}
				wantCells := cellsOf(want.Output)
				for _, par := range []int{1, 4, 0} {
					name := fmt.Sprintf("%s/%v/k=%d/par=%d", tc.name, algo, k, par)
					t.Run(name, func(t *testing.T) {
						got, err := pipeline.Run(newCluster(t, k, a.Clone(), b.Clone()), "A", "B", tc.pred, tc.out, opts(par))
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						if got.Matches != want.Matches {
							t.Errorf("Matches = %d, want %d", got.Matches, want.Matches)
						}
						if got.JoinStats != want.JoinStats {
							t.Errorf("JoinStats = %+v, want %+v", got.JoinStats, want.JoinStats)
						}
						if got.CellsMoved != want.CellsMoved {
							t.Errorf("CellsMoved = %d, want %d", got.CellsMoved, want.CellsMoved)
						}
						if got.ClampedCells != want.ClampedCells {
							t.Errorf("ClampedCells = %d, want %d", got.ClampedCells, want.ClampedCells)
						}
						if got.AlignTime != want.AlignTime {
							t.Errorf("AlignTime = %v, want %v (must be bit-identical)", got.AlignTime, want.AlignTime)
						}
						if got.CompareTime != want.CompareTime {
							t.Errorf("CompareTime = %v, want %v (must be bit-identical)", got.CompareTime, want.CompareTime)
						}
						if !reflect.DeepEqual(got.NodeCompareTime, want.NodeCompareTime) {
							t.Errorf("NodeCompareTime = %v, want %v", got.NodeCompareTime, want.NodeCompareTime)
						}
						if got.Skew != want.Skew || got.StragglerNode != want.StragglerNode {
							t.Errorf("Skew/Straggler = %v/%d, want %v/%d", got.Skew, got.StragglerNode, want.Skew, want.StragglerNode)
						}
						if got.LockWaitSeconds != want.LockWaitSeconds {
							t.Errorf("LockWaitSeconds = %v, want %v", got.LockWaitSeconds, want.LockWaitSeconds)
						}
						if got.Selectivity != want.Selectivity {
							t.Errorf("Selectivity = %v, want %v", got.Selectivity, want.Selectivity)
						}
						if !reflect.DeepEqual(got.Align.Timeline, want.Align.Timeline) {
							t.Errorf("shuffle timelines differ between the engine and the reference")
						}
						if !reflect.DeepEqual(cellsOf(got.Output), wantCells) {
							t.Errorf("output cells differ between the engine and the reference")
						}
						if got.PeakBatchBytes <= 0 {
							t.Errorf("PeakBatchBytes = %d, want > 0", got.PeakBatchBytes)
						}
					})
				}
			}
		}
	}
}

// TestStreamingPeakDeterministic pins the memory gauge itself: the
// reported peak is bit-identical across parallelism (each side is
// charged once at SliceMap, releases come strictly after — the peak is
// the total mapped footprint regardless of execution interleaving).
func TestStreamingPeakDeterministic(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 7, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 8, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}

	var wantPeak int64 = -1
	for _, par := range []int{1, 4, 0} {
		c := newCluster(t, 3, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Selectivity: 0.5,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantPeak < 0 {
			wantPeak = rep.PeakBatchBytes
		}
		if rep.PeakBatchBytes != wantPeak {
			t.Errorf("par=%d: PeakBatchBytes = %d, want %d", par, rep.PeakBatchBytes, wantPeak)
		}
	}
	if wantPeak <= 0 {
		t.Fatalf("PeakBatchBytes = %d, want > 0", wantPeak)
	}
}

// TestMemoryBudgetCounted: an undersized budget in the default counted
// mode completes the query and reports the overflow, mirroring the
// ClampedCells convention.
func TestMemoryBudgetCounted(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 9, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 10, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity:  0.5,
		MemoryBudget: 256,
	})
	if err != nil {
		t.Fatalf("counted overflow must not fail the query: %v", err)
	}
	if rep.MemoryOverflowBytes <= 0 {
		t.Errorf("MemoryOverflowBytes = %d, want > 0", rep.MemoryOverflowBytes)
	}
	if got, want := rep.MemoryOverflowBytes, rep.PeakBatchBytes-256; got != want {
		t.Errorf("MemoryOverflowBytes = %d, want peak-budget = %d", got, want)
	}
	if rep.Matches == 0 {
		t.Error("overflowing query produced no matches; fixture broken")
	}
}

// TestMemoryBudgetStrict: the same undersized budget in strict mode
// fails the query with batch.ErrBudget.
func TestMemoryBudgetStrict(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 9, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 10, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity:  0.5,
		MemoryBudget: 256,
		Strict:       true,
	})
	if !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("err = %v, want batch.ErrBudget", err)
	}
}

// TestStreamingFingerprintsPinned: within the streaming plane, the
// rendered metrics and trace (which cover the memory gauges) stay bit-identical
// across parallelism — the same guarantee the engine makes for every
// other metric.
func TestStreamingFingerprintsPinned(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 11, 100, 20)
	b := buildArray("B<w:int>[j=1,200,20]", 12, 90, 20)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	var want string
	for i, par := range []int{1, 4, 0} {
		c := newCluster(t, 3, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Selectivity: 0.5,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := rendered(t, rep)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("par=%d: fingerprint diverged", par)
		}
	}
}
