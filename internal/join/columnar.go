// Columnar kernels: the three algorithms over a join unit's sides as
// the streaming data plane holds them, runs of spans of a columnar
// store. They read the key columns as typed slices, resolved once per
// side, and write each match as a (left row, right row) pair into a
// match list; the caller gathers output values by row. No cell is
// decoded into a Tuple and no match calls back.
//
// Emit order and Stats are bit-identical to RunStream over the same
// cells decoded to Tuples (FuzzColumnarJoin pins it): every kernel runs
// the loops of its Tuple counterpart, with KeyEqual, KeyCompare and
// keyHash replaced by typed equivalents that follow Value.Equal,
// Value.Compare and Value.HashKey on every pair of key kinds.
package join

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/par"
)

// Matches is a join unit's match list: match i pairs row L[i] of the
// left side with row R[i] of the right side, where a side's rows number
// its cells across its run's spans in run order.
type Matches struct {
	L, R []int32
}

func (m *Matches) add(l, r int32) {
	m.L = append(m.L, l)
	m.R = append(m.R, r)
}

// RunColumns executes the chosen algorithm over one join unit whose
// sides are runs of a columnar store, replacing m's contents with the
// unit's matches. The first nkey columns of each store are the side's
// key columns, in predicate order; a string key column holds codes of
// in, which both sides must share (in may be nil when no key column is
// a string). Matches land in the order RunStream emits them over the
// same cells, and the Stats are RunStream's.
func RunColumns(alg Algorithm, left, right batch.Run, nkey int, in *batch.Intern, m *Matches) (Stats, error) {
	m.L, m.R = m.L[:0], m.R[:0]
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

// keyCol is one key column of one side, flat across the side's run:
// the storage of its type is set, the other two are nil.
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

// scratch is one kernel call's reusable memory: per side, the flat key
// columns' storage and the merge kernel's row permutation.
type scratch struct {
	side [2]keys
	bufs [2][]keyCol // per side and key column: flattening buffers
	perm [2]permSort
}

// scratchPool is a par.Pool for the reason hashIndexPool is.
var scratchPool = par.NewPool[*scratch](512)

// maxPooledRows bounds the scratch scratchPool keeps: scratch grown for a
// larger side is left to the collector, so one huge unit does not pin
// it for the life of the process.
const maxPooledRows = 1 << 20

// release drops the scratch's references into the caller's stores and
// dictionary and returns it to the pool.
func (s *scratch) release() {
	big := false
	for i := range s.side {
		k := &s.side[i]
		big = big || k.n > maxPooledRows
		clear(k.cols)
		k.cols, k.strs = k.cols[:0], nil
	}
	if !big {
		scratchPool.Put(s)
	}
}

// load resolves side s's key columns over run: a one-span run's
// columns are read in place, a longer run's are copied span by span
// into the scratch.
func (s *scratch) load(side int, run batch.Run, nkey int, strs []string) *keys {
	k := &s.side[side]
	k.n, k.strs = run.Len(), strs
	for len(s.bufs[side]) < nkey {
		s.bufs[side] = append(s.bufs[side], keyCol{})
	}
	k.cols = k.cols[:0]
	for c := 0; c < nkey; c++ {
		col, buf := keyCol{}, &s.bufs[side][c]
		if run.Store != nil {
			col.typ = run.Store.Cols[c].Type
		}
		switch col.typ {
		case array.TypeInt64:
			col.ints = batch.Flat(run, func(b *batch.Batch) []int64 { return b.Cols[c].Ints }, &buf.ints)
		case array.TypeFloat64:
			col.fs = batch.Flat(run, func(b *batch.Batch) []float64 { return b.Cols[c].Fs }, &buf.fs)
		case array.TypeString:
			col.codes = batch.Flat(run, func(b *batch.Batch) []uint32 { return b.Cols[c].Codes }, &buf.codes)
		}
		k.cols = append(k.cols, col)
	}
	return k
}

// hashColumns is HashJoinStream's loops over key columns: build on the
// smaller side (the left on a tie), chains inserted in descending row
// order, Comparisons counted per full-hash hit.
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

// nestedLoopColumns is NestedLoopJoinStream's loops over key columns:
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
	k *keys
	p []int32
}

func (s *permSort) Len() int           { return len(s.p) }
func (s *permSort) Less(i, j int) bool { return compare(s.k, int(s.p[i]), s.k, int(s.p[j])) < 0 }
func (s *permSort) Swap(i, j int)      { s.p[i], s.p[j] = s.p[j], s.p[i] }

// sorted returns side k's rows in key order, and whether that order
// passes TuplesSorted's check (a NaN key can leave it failing).
func (ps *permSort) sorted(k *keys) ([]int32, bool) {
	ps.k = k
	ps.p = ps.p[:0]
	for i := 0; i < k.n; i++ {
		ps.p = append(ps.p, int32(i))
	}
	sort.Sort(ps)
	for i := 1; i < len(ps.p); i++ {
		if compare(k, int(ps.p[i-1]), k, int(ps.p[i])) > 0 {
			return ps.p, false
		}
	}
	return ps.p, true
}

// mergeColumns is MergeJoinStream's loops over key columns: both sides
// sorted as SortTuples sorts them, then MergeJoin's cursor walk.
func (s *scratch) mergeColumns(l, r *keys, m *Matches) (Stats, error) {
	var st Stats
	lp, lok := s.perm[0].sorted(l)
	rp, rok := s.perm[1].sorted(r)
	s.perm[0].k, s.perm[1].k = nil, nil
	if !lok || !rok {
		return st, fmt.Errorf("join: merge join requires sorted inputs")
	}
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		st.MergeSteps++
		c := compare(l, int(lp[i]), r, int(rp[j]))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			iEnd := i + 1
			for iEnd < len(lp) && compare(l, int(lp[iEnd]), l, int(lp[i])) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(rp) && compare(r, int(rp[jEnd]), r, int(rp[j])) == 0 {
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
