package pipeline

import (
	"fmt"
	"math"
	"sort"

	"shufflejoin/internal/afl"
	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/simnet"
)

// RedistributeReport accounts for a distributed redimension: the simulated
// network shuffle that moves every cell to the node owning its destination
// chunk, plus the per-node chunk sorting that follows.
type RedistributeReport struct {
	Align      simnet.Result
	AlignTime  float64 // simulated shuffle makespan
	SortTime   float64 // slowest node's modeled chunk-sort time
	TotalTime  float64
	CellsMoved int64
}

// RedistributeOptions tunes a distributed redimension.
type RedistributeOptions struct {
	Scheduling simnet.Scheduling
	// StrictBounds fails the redistribution (with an error wrapping
	// ErrBounds) when a source cell's value for a target dimension falls
	// outside that dimension's declared range, instead of silently
	// clamping it onto the boundary (clamped cells collapse into the edge
	// chunks, skewing placement and sort costs).
	StrictBounds bool
}

// Redistribute performs the redimension of Section 2.3.1 as a cluster
// operation: every node maps its local cells into the target schema's
// chunk grid, ships each cell to the node owning its destination chunk
// (dealt round-robin over the grid), and the receivers sort their new
// chunks. It returns the reorganized distributed array, registered in the
// catalog under the target schema's name, with the timing report. It is
// not a join pipeline — no stages, no QueryContext — but shares the
// engine's cost constants, simulator, and bounds rule.
func Redistribute(c *cluster.Cluster, d *cluster.Distributed, target *array.Schema, opt RedistributeOptions) (*cluster.Distributed, *RedistributeReport, error) {
	if err := target.Validate(); err != nil {
		return nil, nil, err
	}

	// The actual reorganization (single logical array; ownership below).
	out, err := afl.Redimension(d.Array, target)
	if err != nil {
		return nil, nil, err
	}

	// Destination ownership: deal target chunks round-robin in C-order.
	outKeys := out.SortedKeys()
	destNode := make(map[array.ChunkKey]int, len(outKeys))
	for i, key := range outKeys {
		destNode[key] = i % c.K
	}

	// Transfer accounting: walk the source cells again, mapping each to
	// its destination chunk and aggregating (sourceNode -> destNode) cell
	// counts per destination chunk (one slice per source node per chunk,
	// as in the shuffle join's data alignment).
	type flow struct{ from, to int }
	counts := make(map[array.ChunkKey]map[flow]int64)
	mapper, err := targetMapper(d.Array.Schema, target, opt.StrictBounds)
	if err != nil {
		return nil, nil, err
	}
	for key, ch := range d.Array.Chunks {
		from := d.Placement[key]
		for row := 0; row < ch.Len(); row++ {
			coords, attrs := ch.Cell(row)
			destKey, err := mapper(coords, attrs)
			if err != nil {
				return nil, nil, err
			}
			to, ok := destNode[destKey]
			if !ok {
				// Destination chunk empty in out (cannot happen: the cell
				// itself occupies it), but guard anyway.
				to = from
			}
			m := counts[destKey]
			if m == nil {
				m = make(map[flow]int64)
				counts[destKey] = m
			}
			m[flow{from, to}]++
		}
	}
	var transfers []simnet.Transfer
	var moved int64
	for _, key := range outKeys {
		for f, n := range counts[key] {
			if f.from == f.to {
				continue
			}
			transfers = append(transfers, simnet.Transfer{From: f.from, To: f.to, Cells: n})
			moved += n
		}
	}
	// Deterministic transfer order: map iteration above varies; sort.
	// Transfers that tie on the whole key are identical, so the sort
	// need not be stable.
	sort.Slice(transfers, func(i, j int) bool {
		a, b := transfers[i], transfers[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Cells > b.Cells
	})

	align, err := simnet.Simulate(simnet.Config{
		Nodes:       c.K,
		PerCellTime: params.Transfer,
		Scheduling:  opt.Scheduling,
	}, transfers)
	if err != nil {
		return nil, nil, err
	}

	// Per-node sort cost of the received chunks: n·log2(n) per chunk at
	// the merge per-cell rate (Table 1's in-chunk sort). Summed in chunk
	// C-order, not map order, so the float total is bit-identical run to
	// run.
	sortTime := make([]float64, c.K)
	for _, key := range outKeys {
		n := float64(out.Chunks[key].Len())
		if n > 1 {
			sortTime[destNode[key]] += params.Merge * n * math.Log2(n)
		}
	}
	var maxSort float64
	for _, s := range sortTime {
		if s > maxSort {
			maxSort = s
		}
	}

	placement := make(cluster.Placement, len(out.Chunks))
	for key := range out.Chunks {
		placement[key] = destNode[key]
	}
	dist, err := c.LoadExplicit(out, placement)
	if err != nil {
		return nil, nil, err
	}
	rep := &RedistributeReport{
		Align:      align,
		AlignTime:  align.Makespan,
		SortTime:   maxSort,
		TotalTime:  align.Makespan + maxSort,
		CellsMoved: moved,
	}
	return dist, rep, nil
}

// targetMapper resolves how a source cell maps into the target chunk grid.
// Out-of-range values are clamped onto the boundary, or rejected when
// strict is set.
func targetMapper(src, target *array.Schema, strict bool) (func(coords []int64, attrs []array.Value) (array.ChunkKey, error), error) {
	type ref struct {
		isDim bool
		idx   int
	}
	refs := make([]ref, len(target.Dims))
	for i, d := range target.Dims {
		if j := src.DimIndex(d.Name); j >= 0 {
			refs[i] = ref{isDim: true, idx: j}
			continue
		}
		if j := src.AttrIndex(d.Name); j >= 0 {
			refs[i] = ref{isDim: false, idx: j}
			continue
		}
		return nil, fmt.Errorf("pipeline: target dimension %q not in source %s", d.Name, src.Name)
	}
	dims := target.Dims
	return func(coords []int64, attrs []array.Value) (array.ChunkKey, error) {
		idx := make([]int64, len(refs))
		for i, r := range refs {
			var v int64
			if r.isDim {
				v = coords[r.idx]
			} else {
				v = attrs[r.idx].AsInt()
			}
			v, err := clampDim(v, dims[i], strict)
			if err != nil {
				return "", fmt.Errorf("pipeline: redistributed cell %v: %w", coords, err)
			}
			idx[i] = dims[i].ChunkIndex(v)
		}
		return array.MakeChunkKey(idx), nil
	}, nil
}
