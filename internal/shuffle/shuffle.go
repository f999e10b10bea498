// Package shuffle implements the join unit and slice primitives of the
// shuffle join framework (Section 3.1 of the paper).
//
// A join unit is a non-overlapping collection of cells grouped by the join
// predicate: every pair of cells that can possibly match falls into the
// same unit, so units can be processed independently and in parallel. Units
// are built dynamically at query time by a slice function that each node
// applies to its local cells. The per-node fragment of a unit is a slice —
// the granularity of network transfer during data alignment.
//
// Two unit kinds exist, matching the logical planner's operators: chunk
// units (range partitioning by the join schema's chunk intervals, produced
// by redim/rechunk/scan) and hash units (hash buckets over the predicate
// key, produced by the hash operator).
package shuffle

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/par"
)

// UnitKind distinguishes chunk-shaped join units from hash buckets.
type UnitKind int

const (
	// ChunkUnits groups cells by their chunk position in the join schema's
	// dimension space (ordered; supports merge join).
	ChunkUnits UnitKind = iota
	// HashUnits groups cells by a hash of the predicate key (unordered,
	// dimension-less buckets; finer-grained slices).
	HashUnits
)

func (k UnitKind) String() string {
	if k == HashUnits {
		return "hash buckets"
	}
	return "chunks"
}

// UnitSpec describes how cells map to join units. For ChunkUnits, JoinDims
// gives the join schema's dimensions (range + chunk interval per dimension)
// and each side supplies one Ref per join dimension; the unit id is the
// linearized chunk index. For HashUnits, NumUnits buckets are keyed on the
// full predicate key.
type UnitSpec struct {
	Kind     UnitKind
	NumUnits int
	JoinDims []array.Dimension // ChunkUnits only
}

// Validate checks internal consistency of the spec.
func (u *UnitSpec) Validate() error {
	switch u.Kind {
	case HashUnits:
		if u.NumUnits <= 0 {
			return fmt.Errorf("shuffle: hash units need NumUnits > 0, got %d", u.NumUnits)
		}
	case ChunkUnits:
		if len(u.JoinDims) == 0 {
			return fmt.Errorf("shuffle: chunk units need at least one join dimension")
		}
		n := 1
		for _, d := range u.JoinDims {
			if err := d.Validate(); err != nil {
				return err
			}
			n *= int(d.ChunkCount())
		}
		if u.NumUnits == 0 {
			u.NumUnits = n
		} else if u.NumUnits != n {
			return fmt.Errorf("shuffle: NumUnits %d disagrees with join-dim grid %d", u.NumUnits, n)
		}
	default:
		return fmt.Errorf("shuffle: unknown unit kind %d", u.Kind)
	}
	return nil
}

// SideMapper is the slice function for one side of the join, closed over
// the resolved predicate: how to extract the comparison key and (for chunk
// units) the join-space coordinates from a local cell, and which attributes
// the vertically partitioned engine must carry through the shuffle.
type SideMapper struct {
	KeyRefs  []join.Ref // predicate terms of this side, in predicate order
	DimRefs  []join.Ref // ChunkUnits: per JoinDims entry, value source
	CarryAll bool       // carry every attribute (default: only Carry)
	Carry    []int      // attribute indices to carry when !CarryAll
}

// unitOfCell computes the join unit id of a single cell.
func unitOfCell(spec *UnitSpec, m *SideMapper, coords []int64, attrs []array.Value) (int, error) {
	if spec.Kind == HashUnits {
		key := join.KeyOf(m.KeyRefs, coords, attrs)
		var h uint64 = 1469598103934665603
		for i := range key {
			h ^= key[i].HashKey()
			h *= 1099511628211
		}
		return int(h % uint64(spec.NumUnits)), nil
	}
	unit := 0
	for i, d := range spec.JoinDims {
		ref := m.DimRefs[i]
		var v int64
		if ref.IsDim {
			v = coords[ref.Index]
		} else {
			v = attrs[ref.Index].AsInt()
		}
		if v < d.Start {
			v = d.Start
		}
		if v > d.End {
			v = d.End
		}
		unit = unit*int(d.ChunkCount()) + int(d.ChunkIndex(v))
	}
	return unit, nil
}

// SliceSet holds the mapped slices of one side: for every (unit, node)
// pair, the cells of that slice as comparison-ready tuples.
type SliceSet struct {
	Spec  *UnitSpec
	Nodes int
	// cells[unit][node] holds the slice's tuples; nil when empty.
	cells [][][]join.Tuple
}

// Slice returns the tuples of join unit u stored on the given node.
func (ss *SliceSet) Slice(u, node int) []join.Tuple { return ss.cells[u][node] }

// Sizes returns the slice statistics s_{i,j}: cells of each unit on each
// node — exactly what each node reports to the coordinator after slice
// mapping, and what the physical planner consumes.
func (ss *SliceSet) Sizes() [][]int64 {
	out := make([][]int64, ss.Spec.NumUnits)
	for u := range out {
		row := make([]int64, ss.Nodes)
		for n := 0; n < ss.Nodes; n++ {
			row[n] = int64(len(ss.cells[u][n]))
		}
		out[u] = row
	}
	return out
}

// UnitTotal returns S_i, the total cells of unit u across all nodes.
func (ss *SliceSet) UnitTotal(u int) int64 {
	var n int64
	for node := 0; node < ss.Nodes; node++ {
		n += int64(len(ss.cells[u][node]))
	}
	return n
}

// TotalCells returns the cells across all slices.
func (ss *SliceSet) TotalCells() int64 {
	var n int64
	for u := range ss.cells {
		n += ss.UnitTotal(u)
	}
	return n
}

// Assemble concatenates the slices of unit u — as they arrive at the
// destination node during data alignment — into a single join unit side.
// Local cells (those already on dest) come first, then remote slices in
// node order, mirroring arrival order in the executor.
func (ss *SliceSet) Assemble(u, dest int) []join.Tuple {
	dst := append([]join.Tuple(nil), ss.cells[u][dest]...)
	for node := 0; node < ss.Nodes; node++ {
		if node == dest {
			continue
		}
		dst = append(dst, ss.cells[u][node]...)
	}
	return dst
}

// MapSide runs the slice function over one distributed array
// sequentially. It is MapSideN with one worker.
func MapSide(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper) (*SliceSet, error) {
	return MapSideN(d, k, spec, m, 1)
}

// MapSideN runs the slice function over one distributed array: every node
// maps its local cells to (unit, slice) independently of the others —
// fully materializing every mapped cell as a join.Tuple. It is the
// reference the differential tests compare the engine's data plane —
// the columnar MapSideStream, which produces bit-identical
// tuples without the per-cell materialization — against (here and, via
// the test-only reference executor, in internal/pipeline). The Table 1
// operator validation times MapSideStream, not this. The per-row ch.Cell
// calls here (one coords + one attrs allocation per cell) are the cost
// the streaming path removes.
//
// Each node maps independently of the others — exactly what a real
// cluster does node-locally — so the per-node map runs are spread over a
// pool of `workers` goroutines (<= 1 means sequential).
// A node's cells are always processed in chunk-key order by a single
// worker, and distinct nodes write distinct (unit, node) slice slots, so
// the resulting SliceSet is identical at every worker count. Tuples carry
// the comparison key plus only the attributes the mapper says to carry
// (vertical partitioning: the join moves only the necessary columns).
func MapSideN(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper, workers int) (*SliceSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind == ChunkUnits && len(m.DimRefs) != len(spec.JoinDims) {
		return nil, fmt.Errorf("shuffle: mapper has %d dim refs, spec has %d join dims",
			len(m.DimRefs), len(spec.JoinDims))
	}
	ss := &SliceSet{Spec: spec, Nodes: k}
	ss.cells = make([][][]join.Tuple, spec.NumUnits)
	for u := range ss.cells {
		ss.cells[u] = make([][]join.Tuple, k)
	}

	carry := m.Carry
	if m.CarryAll {
		carry = make([]int, len(d.Array.Schema.Attrs))
		for i := range carry {
			carry[i] = i
		}
	}

	errs := make([]error, k)
	par.ForEach(k, workers, func(node int) {
		// The node's chunks in C-order, cached on the sealed array: the
		// order a sequential walk visits them, preserved per node under
		// parallelism.
		for _, key := range d.LocalChunks(node) {
			ch := d.Array.Chunks[key]
			for row := 0; row < ch.Len(); row++ {
				coords, attrs := ch.Cell(row)
				u, err := unitOfCell(spec, m, coords, attrs)
				if err != nil {
					errs[node] = err
					return
				}
				t := join.Tuple{
					Key:    join.KeyOf(m.KeyRefs, coords, attrs),
					Coords: coords,
				}
				if len(carry) > 0 {
					t.Attrs = make([]array.Value, len(carry))
					for i, ai := range carry {
						t.Attrs[i] = attrs[ai]
					}
				}
				ss.cells[u][node] = append(ss.cells[u][node], t)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ss, nil
}
