package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/shuffle"
	"shufflejoin/internal/stats"
)

// OpMeasurement is one point of the Table-1 validation: an operator run at
// one input size, with its measured time and the logical planner's cost
// formula evaluated at the same point.
type OpMeasurement struct {
	Op        string
	Cells     int64
	Seconds   float64
	ModelCost float64 // Table-1 formula in abstract cell units
}

// Table1Operators validates the logical planner's operator cost formulas
// (Table 1) against this repository's real operator implementations: for
// each input size, it measures redim, rechunk, hash (slice mapping), sort,
// and scan, and fits measured time against the formula per operator. High
// r² means the formulas rank reorganizations the way real executions do.
func Table1Operators(sizes []int64, seed int64) ([]OpMeasurement, map[string]stats.LinearFit, error) {
	if len(sizes) == 0 {
		sizes = []int64{20_000, 40_000, 80_000, 160_000}
	}
	const chunks = 32
	var rows []OpMeasurement
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed + n))
		src := array.MustNew(&array.Schema{
			Name:  "A",
			Dims:  []array.Dimension{{Name: "i", Start: 1, End: n, ChunkInterval: (n + chunks - 1) / chunks}},
			Attrs: []array.Attribute{{Name: "v", Type: array.TypeInt64}},
		})
		for i := int64(1); i <= n; i++ {
			src.MustPut([]int64{i}, []array.Value{array.IntValue(rng.Int63n(n))})
		}
		src.SortAll()
		target := &array.Schema{
			Dims:  []array.Dimension{{Name: "v", Start: 0, End: n, ChunkInterval: (n + chunks) / chunks}},
			Attrs: []array.Attribute{{Name: "i", Type: array.TypeInt64}},
		}
		nf, cf := float64(n), float64(chunks)
		logTerm := nf * math.Log2(nf/cf)

		measure := func(op string, model float64, f func() error) error {
			start := time.Now()
			if err := f(); err != nil {
				return err
			}
			rows = append(rows, OpMeasurement{Op: op, Cells: n, Seconds: time.Since(start).Seconds(), ModelCost: model})
			return nil
		}

		// redim and rechunk are the engine's one reorganization walk
		// (the walk Redistribute runs), with and without the chunk sort.
		var err error
		err = measure("redim", nf+logTerm, func() error {
			out, e := array.Reorganize(src, target, false, nil)
			if e == nil {
				out.SortAll()
			}
			return e
		})
		if err != nil {
			return nil, nil, err
		}
		var rechunked *array.Array
		err = measure("rechunk", nf, func() error {
			var e error
			rechunked, e = array.Reorganize(src, target, false, nil)
			return e
		})
		if err != nil {
			return nil, nil, err
		}
		err = measure("sort", logTerm, func() error {
			rechunked.Clone().SortAll()
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		// hash: the engine's streaming slice mapping into hash-bucket join
		// units, its batch runs released as comparison would release them.
		d := cluster.Distribute(src, 1, cluster.RoundRobin)
		spec := &shuffle.UnitSpec{Kind: shuffle.HashUnits, NumUnits: chunks}
		mapper := &shuffle.SideMapper{KeyRefs: []join.Ref{{IsDim: false, Index: 0, Name: "v"}}}
		err = measure("hash", nf, func() error {
			rs, e := shuffle.MapSideStream(d, 1, spec, mapper, 1, shuffle.StreamConfig{})
			if e != nil {
				return e
			}
			for u := 0; u < spec.NumUnits; u++ {
				rs.ReleaseUnit(u)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		err = measure("scan", 0, func() error {
			src.Scan(func([]int64, []array.Value) bool { return true })
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}

	fits := map[string]stats.LinearFit{}
	for _, op := range []string{"redim", "rechunk", "sort", "hash"} {
		var xs, ys []float64
		for _, r := range rows {
			if r.Op == op {
				xs = append(xs, r.ModelCost)
				ys = append(ys, r.Seconds)
			}
		}
		fit, err := stats.Linear(xs, ys)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: fitting %s: %w", op, err)
		}
		fits[op] = fit
	}
	return rows, fits, nil
}

// RenderTable1 prints the operator validation.
func RenderTable1(w io.Writer, rows []OpMeasurement, fits map[string]stats.LinearFit) {
	fmt.Fprintln(w, "Table 1 validation: operator cost formulas vs. measured time")
	fmt.Fprintln(w, "=============================================================")
	fmt.Fprintf(w, "%-8s %10s %14s %14s\n", "op", "cells", "model cost", "seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10d %14.4g %14.5f\n", r.Op, r.Cells, r.ModelCost, r.Seconds)
	}
	for _, op := range []string{"redim", "rechunk", "sort", "hash"} {
		if fit, ok := fits[op]; ok {
			fmt.Fprintf(w, "%-8s: time = %.3g*cost + %.3g, r^2 = %.3f\n", op, fit.Slope, fit.Intercept, fit.R2)
		}
	}
	fmt.Fprintln(w)
}
