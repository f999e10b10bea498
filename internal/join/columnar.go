// Columnar kernels: the three algorithms over a join unit's sides as
// the streaming data plane holds them, each one range of a columnar
// store. They read the key columns in place as typed slices, resolved
// once per side, and write each match as a (left row, right row) pair
// into a match list; the caller gathers output values by row. No cell
// is decoded into a Tuple and no match calls back.
//
// Emit order and Stats are bit-identical to RunStream over the same
// cells decoded to Tuples (FuzzColumnarJoin pins it): every kernel runs
// the loops of its Tuple counterpart in join.go, with KeyEqual,
// KeyCompare and keyHash replaced by typed equivalents that follow
// Value.Equal, Value.Compare and Value.HashKey on every pair of key
// kinds.
package join

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/par"
)

// Matches is a join unit's match list: match i pairs row L[i] of the
// left side with row R[i] of the right side, where a side's rows number
// its run's cells from 0.
type Matches struct {
	L, R []int32
}

func (m *Matches) add(l, r int32) {
	m.L = append(m.L, l)
	m.R = append(m.R, r)
}

// RunColumns executes the chosen algorithm over one join unit whose
// sides are runs of a columnar store, appending the unit's matches to m,
// so one list may hold several units' matches, each a range of it. The
// first nkey columns of each store are the side's key columns, in
// predicate order; a string key column holds codes of in, which both
// sides must share (in may be nil when no key column is a string).
// Matches land in the order RunStream emits them over the same cells,
// and the Stats are RunStream's.
func RunColumns(alg Algorithm, left, right batch.Run, nkey int, in *batch.Intern, m *Matches) (Stats, error) {
	s, ok := scratchPool.Get()
	if !ok {
		s = new(scratch)
	}
	defer s.release()
	var strs []string
	if in != nil {
		strs = in.Strs()
	}
	l, r := s.load(0, left, nkey, strs), s.load(1, right, nkey, strs)
	switch alg {
	case Hash:
		return hashColumns(l, r, m), nil
	case Merge:
		return s.mergeColumns(l, r, m)
	case NestedLoop:
		return nestedLoopColumns(l, r, m), nil
	default:
		return Stats{}, fmt.Errorf("join: unknown algorithm %d", alg)
	}
}

// keyCol is one key column of one side, over the side's run: the
// storage of its type is set, the other two are nil.
type keyCol struct {
	typ   array.ScalarType
	ints  []int64
	fs    []float64
	codes []uint32
}

// float is the column's value at row i as Value.AsFloat gives it, for
// numeric columns.
func (c *keyCol) float(i int) float64 {
	if c.typ == array.TypeInt64 {
		return float64(c.ints[i])
	}
	return c.fs[i]
}

// keys is one side's key columns and the dictionary their string codes
// index.
type keys struct {
	n    int
	cols []keyCol
	strs []string
}

// hash is keyHash of row i: the per-column HashKey, folded alike.
func (k *keys) hash(i int) uint64 {
	var h uint64 = 1469598103934665603
	for c := range k.cols {
		col := &k.cols[c]
		switch col.typ {
		case array.TypeInt64:
			h ^= array.HashInt(col.ints[i])
		case array.TypeFloat64:
			h ^= array.HashFloat(col.fs[i])
		case array.TypeString:
			h ^= array.HashString(k.strs[col.codes[i]])
		}
		h *= 1099511628211
	}
	return h
}

// nan reports whether a float key column of k holds a NaN.
func (k *keys) nan() bool {
	return slices.ContainsFunc(k.cols, func(c keyCol) bool { return slices.ContainsFunc(c.fs, math.IsNaN) })
}

// equal is KeyEqual of row i of a and row j of b: Value.Equal on every
// key column. Equal strings have equal codes, since both sides intern
// into one dictionary.
func equal(a *keys, i int, b *keys, j int) bool {
	for c := range a.cols {
		x, y := &a.cols[c], &b.cols[c]
		switch {
		case x.typ == y.typ:
			switch x.typ {
			case array.TypeInt64:
				if x.ints[i] != y.ints[j] {
					return false
				}
			case array.TypeFloat64:
				if x.fs[i] != y.fs[j] {
					return false
				}
			case array.TypeString:
				if x.codes[i] != y.codes[j] {
					return false
				}
			}
		case x.typ == array.TypeString || y.typ == array.TypeString:
			return false
		default:
			if x.float(i) != y.float(j) {
				return false
			}
		}
	}
	return true
}

// compare is KeyCompare of row i of a and row j of b: Value.Compare on
// each key column in turn.
func compare(a *keys, i int, b *keys, j int) int {
	for c := range a.cols {
		x, y := &a.cols[c], &b.cols[c]
		var r int
		switch {
		case x.typ == array.TypeString && y.typ == array.TypeString:
			r = strings.Compare(a.strs[x.codes[i]], b.strs[y.codes[j]])
		case x.typ == array.TypeString:
			r = 1
		case y.typ == array.TypeString:
			r = -1
		case x.typ == array.TypeInt64 && y.typ == array.TypeInt64:
			r = cmp.Compare(x.ints[i], y.ints[j])
		default:
			// Not cmp.Compare: a NaN compares 0 against anything, as in
			// Value.Compare.
			if f, g := x.float(i), y.float(j); f < g {
				r = -1
			} else if f > g {
				r = 1
			}
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

// order is compare, or an equivalent for the key columns at hand.
type order func(a *keys, i int, b *keys, j int) int

// compareInts is compare when every key column of both sides is int64.
func compareInts(a *keys, i int, b *keys, j int) int {
	for c := range a.cols {
		if x, y := a.cols[c].ints[i], b.cols[c].ints[j]; x != y {
			return cmp.Compare(x, y)
		}
	}
	return 0
}

// orderOf returns compareInts when every key column of l and r is
// int64, and compare otherwise.
func orderOf(l, r *keys) order {
	notInt := func(c keyCol) bool { return c.typ != array.TypeInt64 }
	if slices.ContainsFunc(l.cols, notInt) || slices.ContainsFunc(r.cols, notInt) {
		return compare
	}
	return compareInts
}

// scratch is one kernel call's reusable memory: per side, the key
// columns and the merge kernel's row permutation.
type scratch struct {
	side [2]keys
	perm [2]permSort
}

// scratchPool is a par.Pool for the reason hashIndexPool is.
var scratchPool = par.NewPool[*scratch](512)

// release drops the scratch's references into the caller's stores and
// dictionary and returns it to the pool, unless a side grew it past
// batch.MaxPooledRows.
func (s *scratch) release() {
	big := false
	for i := range s.side {
		k := &s.side[i]
		big = big || k.n > batch.MaxPooledRows
		clear(k.cols)
		k.cols, k.strs = k.cols[:0], nil
	}
	if !big {
		scratchPool.Put(s)
	}
}

// load resolves side s's key columns over run, in place.
func (s *scratch) load(side int, run batch.Run, nkey int, strs []string) *keys {
	k := &s.side[side]
	k.n, k.strs = run.Len(), strs
	k.cols = k.cols[:0]
	for c := 0; c < nkey; c++ {
		src := &run.Store.Cols[c]
		col := keyCol{typ: src.Type}
		switch col.typ {
		case array.TypeInt64:
			col.ints = src.Ints[run.Lo:run.Hi]
		case array.TypeFloat64:
			col.fs = src.Fs[run.Lo:run.Hi]
		case array.TypeString:
			col.codes = src.Codes[run.Lo:run.Hi]
		}
		k.cols = append(k.cols, col)
	}
	return k
}

// hashColumns is HashJoin's loops over key columns: build on the
// smaller side (the left on a tie), chains inserted in descending row
// order so each lists its rows ascending, as HashJoin's buckets do, and
// Comparisons counted per full-hash hit.
func hashColumns(l, r *keys, m *Matches) Stats {
	var st Stats
	build, probe := l, r
	swapped := false
	if r.n < l.n {
		build, probe = r, l
		swapped = true
	}
	idx := getHashIndex(build.n)
	for i := build.n - 1; i >= 0; i-- {
		idx.insert(i, build.hash(i))
	}
	st.BuildOps = int64(build.n)
	for i := 0; i < probe.n; i++ {
		st.ProbeOps++
		h := probe.hash(i)
		for j := idx.first(h); j >= 0; j = idx.next[j] {
			if idx.hashes[j] != h {
				continue
			}
			st.Comparisons++
			if equal(probe, i, build, int(j)) {
				st.Matches++
				if swapped {
					m.add(int32(i), j)
				} else {
					m.add(j, int32(i))
				}
			}
		}
	}
	putHashIndex(idx)
	return st
}

// hashIndex is a pooled open-chaining hash table over build-side rows:
// slots holds the head row per bucket (-1 empty), next the chain links,
// hashes the full 64-bit key hash per row (so bucket collisions between
// distinct hashes are skipped without a key comparison, as HashJoin's
// map keyed by hash skips them).
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

// getHashIndex returns a cleared index sized for n build rows.
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

// nestedLoopColumns is NestedLoopJoin's loops over key columns:
// the smaller side (the left on a tie) is the inner.
func nestedLoopColumns(l, r *keys, m *Matches) Stats {
	var st Stats
	inner, outer := l, r
	swapped := false
	if r.n < l.n {
		inner, outer = r, l
		swapped = true
	}
	for i := 0; i < outer.n; i++ {
		for j := 0; j < inner.n; j++ {
			st.Comparisons++
			if equal(outer, i, inner, j) {
				st.Matches++
				if swapped {
					m.add(int32(i), int32(j))
				} else {
					m.add(int32(j), int32(i))
				}
			}
		}
	}
	return st
}

// permSort orders a side's rows by key through a permutation. It sorts
// with sort.Sort, the algorithm sort.Slice runs in SortTuples, under
// the same less, so rows with equal keys end where SortTuples puts
// their tuples (slices.SortFunc is a different sort, and need not).
type permSort struct {
	k   *keys
	cmp order
	p   []int32
}

func (s *permSort) Len() int           { return len(s.p) }
func (s *permSort) Less(i, j int) bool { return s.cmp(s.k, int(s.p[i]), s.k, int(s.p[j])) < 0 }
func (s *permSort) Swap(i, j int)      { s.p[i], s.p[j] = s.p[j], s.p[i] }

// sorted returns side k's rows in key order under cmp, and whether that
// order passes TuplesSorted's check (a NaN key can leave it failing).
// Strictly ascending keys have one order, their own: no sort, no check.
// A tie, ±0 or a NaN (equal to all: a later column fakes an ascent) sorts.
func (ps *permSort) sorted(k *keys, cmp order) ([]int32, bool) {
	ps.k, ps.cmp = k, cmp
	ps.p = ps.p[:0]
	ascending := !k.nan()
	for i := 0; i < k.n; i++ {
		ps.p = append(ps.p, int32(i))
		ascending = ascending && (i == 0 || cmp(k, i-1, k, i) < 0)
	}
	if ascending {
		return ps.p, true
	}
	sort.Sort(ps)
	for i := 1; i < len(ps.p); i++ {
		if cmp(k, int(ps.p[i-1]), k, int(ps.p[i])) > 0 {
			return ps.p, false
		}
	}
	return ps.p, true
}

// mergeColumns is RunStream's merge over key columns: both sides
// sorted as SortTuples sorts them, then MergeJoin's cursor walk. Sides
// of one or two int64 key columns whose keys strictly ascend take
// mergeInts, which needs neither.
func (s *scratch) mergeColumns(l, r *keys, m *Matches) (Stats, error) {
	if st, ok := mergeInts(l, r, m); ok {
		return st, nil
	}
	var st Stats
	cmpf := orderOf(l, r)
	lp, lok := s.perm[0].sorted(l, cmpf)
	rp, rok := s.perm[1].sorted(r, cmpf)
	s.perm[0].k, s.perm[1].k = nil, nil
	if !lok || !rok {
		return st, fmt.Errorf("join: merge join requires sorted inputs")
	}
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		st.MergeSteps++
		c := cmpf(l, int(lp[i]), r, int(rp[j]))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			iEnd := i + 1
			for iEnd < len(lp) && cmpf(l, int(lp[iEnd]), l, int(lp[i])) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(rp) && cmpf(r, int(rp[jEnd]), r, int(rp[j])) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					st.Matches++
					m.add(lp[a], rp[b])
				}
			}
			st.MergeSteps += int64(iEnd-i) + int64(jEnd-j) - 1
			i, j = iEnd, jEnd
		}
	}
	return st, nil
}

// mergeInts is mergeColumns on typed key columns, for sides whose keys
// are one or two int64 columns and strictly ascend, and reports whether
// the sides are such. Strictly ascending keys are their own sort order,
// and MergeJoin's walk over them finds each key at most once per side,
// so a match advances both cursors and counts one merge step more. One
// column is walked as a pair of itself.
func mergeInts(l, r *keys, m *Matches) (Stats, bool) {
	notInt := func(c keyCol) bool { return c.typ != array.TypeInt64 }
	if len(l.cols) == 0 || len(l.cols) > 2 || slices.ContainsFunc(l.cols, notInt) || slices.ContainsFunc(r.cols, notInt) {
		return Stats{}, false
	}
	last := len(l.cols) - 1
	a0, a1, b0, b1 := l.cols[0].ints, l.cols[last].ints, r.cols[0].ints, r.cols[last].ints
	if !ascending(a0, a1) || !ascending(b0, b1) {
		return Stats{}, false
	}
	return merge(a0, a1, b0, b1, m), true
}

// ascending reports whether the pairs (k0[i], k1[i]) strictly ascend.
func ascending(k0, k1 []int64) bool {
	k1 = k1[:len(k0)]
	for i := 1; i < len(k0); i++ {
		if k0[i-1] > k0[i] || k0[i-1] == k0[i] && k1[i-1] >= k1[i] {
			return false
		}
	}
	return true
}

// merge is MergeJoin's walk over the strictly ascending pairs (a0, a1)
// and (b0, b1).
func merge(a0, a1, b0, b1 []int64, m *Matches) Stats {
	var st Stats
	a1, b1 = a1[:len(a0)], b1[:len(b0)]
	i, j := 0, 0
	for i < len(a0) && j < len(b0) {
		st.MergeSteps++
		switch x, y := a0[i], b0[j]; {
		case x < y || x == y && a1[i] < b1[j]:
			i++
		case x > y || a1[i] > b1[j]:
			j++
		default:
			st.Matches++
			st.MergeSteps++
			m.add(int32(i), int32(j))
			i, j = i+1, j+1
		}
	}
	return st
}
