package pipeline

import (
	"fmt"
	"math"
	"sort"

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
	// The one reorganization walk, counting how many cells each source
	// node contributes to each destination chunk (one slice per source
	// node per chunk, as in the shuffle join's data alignment). The walk
	// visits a chunk's rows together, so the source node is looked up
	// once per chunk.
	type flow struct {
		dest array.ChunkKey
		from int
	}
	counts := make(map[flow]int64)
	var srcKey array.ChunkKey
	from := -1
	out, err := array.Reorganize(d.Array, target, opt.StrictBounds, func(key array.ChunkKey, dst []int64) {
		if from < 0 || key != srcKey {
			srcKey, from = key, d.Placement[key]
		}
		counts[flow{array.ChunkKeyOf(target, dst), from}]++
	})
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: redistribute: %w", err)
	}
	out.SortAll()

	// Destination ownership: deal target chunks round-robin in C-order.
	outKeys := out.SortedKeys()
	destNode := make(cluster.Placement, len(outKeys))
	for i, key := range outKeys {
		destNode[key] = i % c.K
	}
	var transfers []simnet.Transfer
	var moved int64
	for f, n := range counts {
		if to := destNode[f.dest]; to != f.from {
			transfers = append(transfers, simnet.Transfer{From: f.from, To: to, Cells: n})
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

	dist, err := c.LoadExplicit(out, destNode)
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
