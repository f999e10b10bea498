// Streaming variants of the cell-comparison algorithms: the same three
// algorithms as join.go, operating on pull-based tuple streams instead
// of fully materialized []Tuple sides. Every streaming variant is
// emit-order and statistics bit-identical to its materializing
// reference (Run and the algorithms in join.go) — the differential
// tests in stream_test.go and the pipeline's reference-executor test
// pin that. The engine runs only the streaming variants; the
// materializing ones stay as that reference.
package join

import (
	"fmt"

	"shufflejoin/internal/par"
)

// TupleStream is a pull-based source of one join unit's tuples for one
// side of the comparison.
//
// Len reports the total tuple count up front (slice sizes are known
// after slice mapping), which the algorithms use for build/inner-side
// selection exactly as the materializing reference does.
//
// Next returns the next window of tuples, or ok=false at exhaustion.
// The window — and every slice its tuples reference — is valid only
// until the following Next call, so consumers must not retain it.
//
// Materialize decodes the entire remaining stream into storage owned by
// the stream, valid until the stream is closed or reused. It is the
// build-side escape hatch: hash build, merge sort, and the nested-loop
// inner side all need random access over one full side. Call it before
// any Next, at most once.
type TupleStream interface {
	Len() int
	Next() ([]Tuple, bool)
	Materialize() []Tuple
}

// SliceStream adapts an in-memory []Tuple to TupleStream, yielding
// windows of at most Window tuples (0 = everything in one window).
// Used by differential tests and as the bridge from materialized
// slices.
type SliceStream struct {
	Tuples []Tuple
	Window int
	pos    int
}

// Len implements TupleStream.
func (s *SliceStream) Len() int { return len(s.Tuples) }

// Next implements TupleStream.
func (s *SliceStream) Next() ([]Tuple, bool) {
	if s.pos >= len(s.Tuples) {
		return nil, false
	}
	w := s.Window
	if w <= 0 || s.pos+w > len(s.Tuples) {
		w = len(s.Tuples) - s.pos
	}
	out := s.Tuples[s.pos : s.pos+w]
	s.pos += w
	return out, true
}

// Materialize implements TupleStream.
func (s *SliceStream) Materialize() []Tuple {
	out := s.Tuples[s.pos:]
	s.pos = len(s.Tuples)
	return out
}

// RunStream executes the chosen algorithm over one join unit's streamed
// sides. Emit order and Stats are bit-identical to Run over the
// materialized equivalents of the same streams.
func RunStream(alg Algorithm, left, right TupleStream, emit EmitFunc) (Stats, error) {
	switch alg {
	case Hash:
		return HashJoinStream(left, right, emit), nil
	case Merge:
		return MergeJoinStream(left, right, emit)
	case NestedLoop:
		return NestedLoopJoinStream(left, right, emit), nil
	default:
		return Stats{}, fmt.Errorf("join: unknown algorithm %d", alg)
	}
}

// HashJoinStream is HashJoin over streams: it materializes the smaller
// side (same side selection and tie-break as HashJoin), builds a pooled
// open-chaining index over it, and probes with the larger side one
// window at a time — bounded probe-side memory. Chains are built by
// inserting in descending tuple order so traversal yields ascending
// insertion order, matching the reference's map-of-append-slices emit
// order; Comparisons counts full-hash bucket hits exactly as the
// reference's per-hash buckets do.
func HashJoinStream(left, right TupleStream, emit EmitFunc) Stats {
	var st Stats
	build, probe := left, right
	swapped := false
	if right.Len() < left.Len() {
		build, probe = right, left
		swapped = true
	}
	bt := build.Materialize()
	idx := getHashIndex(len(bt))
	for i := len(bt) - 1; i >= 0; i-- {
		idx.insert(i, keyHash(&bt[i]))
	}
	st.BuildOps = int64(len(bt))
	for {
		win, ok := probe.Next()
		if !ok {
			break
		}
		for i := range win {
			st.ProbeOps++
			h := keyHash(&win[i])
			for j := idx.first(h); j >= 0; j = idx.next[j] {
				if idx.hashes[j] != h {
					continue
				}
				st.Comparisons++
				if KeyEqual(&win[i], &bt[j]) {
					st.Matches++
					if emit != nil {
						if swapped {
							emit(&win[i], &bt[j])
						} else {
							emit(&bt[j], &win[i])
						}
					}
				}
			}
		}
	}
	putHashIndex(idx)
	return st
}

// MergeJoinStream is the merge join over streams. Reassembled join
// units arrive as concatenations of sorted slices, so — exactly like
// the reference executor — both sides are materialized
// and sorted with SortTuples before the cursor walk; sort.Slice is
// deterministic for a given input order, so tie order matches the
// reference bit for bit.
func MergeJoinStream(left, right TupleStream, emit EmitFunc) (Stats, error) {
	lt := left.Materialize()
	rt := right.Materialize()
	SortTuples(lt)
	SortTuples(rt)
	return MergeJoin(lt, rt, emit)
}

// NestedLoopJoinStream is NestedLoopJoin over streams: the smaller side
// (same selection and tie-break as the reference's inner side) is
// materialized and the larger side streams through one window at a
// time.
func NestedLoopJoinStream(left, right TupleStream, emit EmitFunc) Stats {
	var st Stats
	inner, outer := left, right
	swapped := false
	if right.Len() < left.Len() {
		inner, outer = right, left
		swapped = true
	}
	it := inner.Materialize()
	for {
		win, ok := outer.Next()
		if !ok {
			break
		}
		for i := range win {
			for j := range it {
				st.Comparisons++
				if KeyEqual(&win[i], &it[j]) {
					st.Matches++
					if emit != nil {
						if swapped {
							emit(&win[i], &it[j])
						} else {
							emit(&it[j], &win[i])
						}
					}
				}
			}
		}
	}
	return st
}

// hashIndex is a pooled open-chaining hash table over build-side tuple
// indices: slots holds the head index per bucket (-1 empty), next the
// chain links, hashes the full 64-bit key hash per tuple (so bucket
// collisions between distinct hashes are skipped without a key
// comparison, matching the reference's map-keyed-by-hash semantics).
type hashIndex struct {
	mask   uint64
	slots  []int32
	next   []int32
	hashes []uint64
}

// hashIndexPool is a par.Pool rather than a sync.Pool: under concurrent
// serving every query's every unit hits this pool, and sync.Pool drains
// under GC pressure, re-paying the index's slab allocations.
var hashIndexPool = par.NewPool[*hashIndex](512)

// getHashIndex returns a cleared index sized for n build tuples.
func getHashIndex(n int) *hashIndex {
	idx, ok := hashIndexPool.Get()
	if !ok {
		idx = new(hashIndex)
	}
	size := 8
	for size < n {
		size <<= 1
	}
	if cap(idx.slots) < size {
		idx.slots = make([]int32, size)
	} else {
		idx.slots = idx.slots[:size]
	}
	for i := range idx.slots {
		idx.slots[i] = -1
	}
	if cap(idx.next) < n {
		idx.next = make([]int32, n)
		idx.hashes = make([]uint64, n)
	} else {
		idx.next = idx.next[:n]
		idx.hashes = idx.hashes[:n]
	}
	idx.mask = uint64(size - 1)
	return idx
}

func putHashIndex(idx *hashIndex) { hashIndexPool.Put(idx) }

func (ix *hashIndex) insert(i int, h uint64) {
	ix.hashes[i] = h
	b := h & ix.mask
	ix.next[i] = ix.slots[b]
	ix.slots[b] = int32(i)
}

func (ix *hashIndex) first(h uint64) int32 { return ix.slots[h&ix.mask] }
