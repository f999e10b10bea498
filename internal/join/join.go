// Package join implements the cell-comparison algorithms of the shuffle
// join framework (Section 3.2 of the paper): hash join, merge join, and
// nested loop join. Each algorithm processes one join unit — a pair of cell
// sets, one per input array, that together cover a non-overlapping region
// of the predicate space — and emits matching cell pairs.
//
// The algorithms also report operation counts (hash builds, probes, cursor
// steps, raw comparisons) that the physical planner's analytical cost model
// calibrates against: the per-cell parameters m, b, and p of Section 5.1.
//
// The engine runs the columnar kernels (RunColumns) over each side read
// in place as one range of a columnar store. The Tuple kernels here, run
// by Run and by RunStream (Run over materialized sides), are the one
// reference they are held to.
package join

import (
	"fmt"
	"sort"

	"shufflejoin/internal/array"
)

// Tuple is one cell prepared for comparison: the values compared by the
// join predicate (in predicate order), plus the cell's coordinates and
// carried attributes, which flow into the output.
type Tuple struct {
	Key    []array.Value
	Coords []int64
	Attrs  []array.Value
}

// KeyEqual reports whether two tuples match under the equi-join predicate.
func KeyEqual(a, b *Tuple) bool {
	if len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Key {
		if !a.Key[i].Equal(b.Key[i]) {
			return false
		}
	}
	return true
}

// KeyCompare orders tuples by their keys (for merge join and sorting).
func KeyCompare(a, b *Tuple) int {
	n := len(a.Key)
	if len(b.Key) < n {
		n = len(b.Key)
	}
	for i := 0; i < n; i++ {
		if c := a.Key[i].Compare(b.Key[i]); c != 0 {
			return c
		}
	}
	return len(a.Key) - len(b.Key)
}

// keyHash combines the per-value hash keys of a tuple's key.
func keyHash(t *Tuple) uint64 {
	var h uint64 = 1469598103934665603
	for i := range t.Key {
		h ^= t.Key[i].HashKey()
		h *= 1099511628211
	}
	return h
}

// SortTuples sorts a side into key order (used before merge join when its
// input arrived unsorted, and after hash joins whose destination requires
// order).
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return KeyCompare(&ts[i], &ts[j]) < 0 })
}

// TuplesSorted reports whether a side is in key order.
func TuplesSorted(ts []Tuple) bool {
	for i := 1; i < len(ts); i++ {
		if KeyCompare(&ts[i-1], &ts[i]) > 0 {
			return false
		}
	}
	return true
}

// Algorithm enumerates the cell-comparison implementations.
type Algorithm int

const (
	// Hash builds a hash map over the smaller side and probes with the
	// larger. Linear time; input order agnostic.
	Hash Algorithm = iota
	// Merge advances dual cursors over two key-sorted sides. Linear time;
	// requires sorted inputs.
	Merge
	// NestedLoop compares every pair. Polynomial time; order agnostic.
	NestedLoop
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case Hash:
		return "hash"
	case Merge:
		return "merge"
	case NestedLoop:
		return "nestedloop"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Stats counts the work a join performed, in the units of the analytical
// cost model: BuildOps cells inserted into a hash map (parameter b),
// ProbeOps cells probed (parameter p), MergeSteps cursor advances
// (parameter m), and Comparisons raw pairwise tests (nested loop).
type Stats struct {
	BuildOps    int64
	ProbeOps    int64
	MergeSteps  int64
	Comparisons int64
	Matches     int64
}

// Add accumulates another Stats.
func (s *Stats) Add(o Stats) {
	s.BuildOps += o.BuildOps
	s.ProbeOps += o.ProbeOps
	s.MergeSteps += o.MergeSteps
	s.Comparisons += o.Comparisons
	s.Matches += o.Matches
}

// EmitFunc receives each matching pair: the left and right tuples.
type EmitFunc func(l, r *Tuple)

// Run executes the chosen algorithm over one join unit.
func Run(alg Algorithm, left, right []Tuple, emit EmitFunc) (Stats, error) {
	switch alg {
	case Hash:
		return HashJoin(left, right, emit), nil
	case Merge:
		return MergeJoin(left, right, emit)
	case NestedLoop:
		return NestedLoopJoin(left, right, emit), nil
	default:
		return Stats{}, fmt.Errorf("join: unknown algorithm %d", alg)
	}
}

// TupleStream is one join unit's side as a source of tuples: Materialize
// decodes the whole side into storage the stream owns, valid until the
// stream is closed or reused. Call it at most once.
type TupleStream interface {
	Materialize() []Tuple
}

// RunStream is Run over materialized sides. A join unit's side arrives
// as a concatenation of sorted slices, so for a merge both sides are
// sorted with SortTuples first, as the reference executor sorts them.
func RunStream(alg Algorithm, left, right TupleStream, emit EmitFunc) (Stats, error) {
	lt, rt := left.Materialize(), right.Materialize()
	if alg == Merge {
		SortTuples(lt)
		SortTuples(rt)
	}
	return Run(alg, lt, rt, emit)
}

// HashJoin builds a hash map over the smaller side of the join and probes
// it with each cell of the larger side. Building a hash entry is costlier
// than probing one, which is why the algorithm always builds on the small
// side (Section 5.1's cost C_i = b·t_i + p·u_i).
func HashJoin(left, right []Tuple, emit EmitFunc) Stats {
	var st Stats
	build, probe := left, right
	swapped := false
	if len(right) < len(left) {
		build, probe = right, left
		swapped = true
	}
	table := make(map[uint64][]int, len(build))
	for i := range build {
		h := keyHash(&build[i])
		table[h] = append(table[h], i)
		st.BuildOps++
	}
	for i := range probe {
		st.ProbeOps++
		h := keyHash(&probe[i])
		for _, j := range table[h] {
			st.Comparisons++
			if KeyEqual(&probe[i], &build[j]) {
				st.Matches++
				if emit != nil {
					if swapped {
						emit(&probe[i], &build[j])
					} else {
						emit(&build[j], &probe[i])
					}
				}
			}
		}
	}
	return st
}

// HashJoinBuildSide is HashJoin with the build side fixed by the caller
// instead of chosen as the smaller input. It exists for the build-side
// ablation benchmark: the paper observes that building a hash map costs
// much more per cell than probing one, which is why the planner's cost
// model always builds on the smaller side.
func HashJoinBuildSide(build, probe []Tuple, emit EmitFunc) Stats {
	var st Stats
	table := make(map[uint64][]int, len(build))
	for i := range build {
		table[keyHash(&build[i])] = append(table[keyHash(&build[i])], i)
		st.BuildOps++
	}
	for i := range probe {
		st.ProbeOps++
		for _, j := range table[keyHash(&probe[i])] {
			st.Comparisons++
			if KeyEqual(&probe[i], &build[j]) {
				st.Matches++
				if emit != nil {
					emit(&build[j], &probe[i])
				}
			}
		}
	}
	return st
}

// MergeJoin advances a cursor over each key-sorted side, incrementing the
// cursor at the smaller key and emitting all pairings of equal-key runs.
// Returns an error if an input is not sorted (the logical planner must
// have arranged sorted join units for a merge plan).
func MergeJoin(left, right []Tuple, emit EmitFunc) (Stats, error) {
	var st Stats
	if !TuplesSorted(left) || !TuplesSorted(right) {
		return st, fmt.Errorf("join: merge join requires sorted inputs")
	}
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		st.MergeSteps++
		c := KeyCompare(&left[i], &right[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Equal-key runs: emit the cross product of the runs.
			iEnd := i + 1
			for iEnd < len(left) && KeyCompare(&left[iEnd], &left[i]) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(right) && KeyCompare(&right[jEnd], &right[j]) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					st.Matches++
					if emit != nil {
						emit(&left[a], &right[b])
					}
				}
			}
			st.MergeSteps += int64(iEnd-i) + int64(jEnd-j) - 1
			i, j = iEnd, jEnd
		}
	}
	return st, nil
}

// NestedLoopJoin loops the larger side over the smaller, comparing every
// pair. It replaces the hash map of HashJoin with a scan, giving
// polynomial O(n_l · n_r) time; the paper shows it is never profitable
// (Sections 4 and 6.1) but it remains available as the fallback that works
// on any input.
func NestedLoopJoin(left, right []Tuple, emit EmitFunc) Stats {
	var st Stats
	inner, outer := left, right
	swapped := false
	if len(right) < len(left) {
		inner, outer = right, left
		swapped = true
	}
	for i := range outer {
		for j := range inner {
			st.Comparisons++
			if KeyEqual(&outer[i], &inner[j]) {
				st.Matches++
				if emit != nil {
					if swapped {
						emit(&outer[i], &inner[j])
					} else {
						emit(&inner[j], &outer[i])
					}
				}
			}
		}
	}
	return st
}
