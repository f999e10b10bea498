package array

import (
	"cmp"
	"slices"

	"shufflejoin/internal/par"
)

// maxMergeRuns is the most ascending runs a chunk may consist of for Sort
// to merge them rather than sort a permutation. A join's output chunk has
// one run per node that wrote into it.
const maxMergeRuns = 8

// sortScratch is Sort's row permutation and the buffers it gathers
// columns through. sortPool recycles them, so a sort allocates nothing
// once the pool holds buffers of the chunk's length. It is a par.Pool, not
// a sync.Pool: a collection would empty a sync.Pool between queries at
// random, and each sort that missed would allocate its buffers afresh.
type sortScratch struct {
	perm []int32
	ints []int64
	fs   []float64
	strs []string
}

var sortPool = par.NewPool[*sortScratch](8)

// maxPooledSortRows bounds the scratch sortPool keeps: buffers grown for
// a larger chunk are left to the collector, so one huge sort does not
// pin them for the life of the process.
const maxPooledSortRows = 1 << 20

// Sort sorts the chunk's cells into C-order on the coordinates, stably:
// cells with equal coordinates keep their order. It is the in-chunk sort
// invoked by the redimension operator; cost O(n log n) per chunk (Table
// 1). A chunk of at most maxMergeRuns ascending runs is merged, ties
// going to the earlier run, in O(n · runs); any other chunk sorts a
// permutation of its rows, ties broken by row index. Either way each
// column is then gathered into the new order through a pooled buffer and
// copied back. A chunk holds fewer than 2^31 cells.
func (ch *Chunk) Sort() {
	if ch.Sorted || ch.NDims == 0 {
		ch.Sorted = true
		return
	}
	var bounds [maxMergeRuns + 1]int
	runs := ch.runBounds(bounds[:0])
	if len(runs) == 2 { // one run: already in C-order
		ch.Sorted = true
		return
	}
	n := ch.Len()
	sc, ok := sortPool.Get()
	if !ok {
		sc = new(sortScratch)
	}
	perm := slices.Grow(sc.perm[:0], n)[:n]
	if runs != nil {
		ch.mergeRuns(runs, perm)
	} else {
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if c := ch.compareRows(int(a), int(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	for d := range ch.Coords {
		sc.ints = applyPerm(ch.Coords[d], perm, sc.ints)
	}
	for i := range ch.Cols {
		switch c := &ch.Cols[i]; c.Type {
		case TypeInt64:
			sc.ints = applyPerm(c.Ints, perm, sc.ints)
		case TypeFloat64:
			sc.fs = applyPerm(c.Fs, perm, sc.fs)
		case TypeString:
			sc.strs = applyPerm(c.Strs, perm, sc.strs)
			clear(sc.strs) // hold no strings in the pool
		}
	}
	if n <= maxPooledSortRows {
		sc.perm = perm
		sortPool.Put(sc)
	}
	ch.Sorted = true
}

// runBounds appends to dst the start row of each maximal ascending run of
// the chunk and then its length, or returns nil when the chunk has more
// than maxMergeRuns runs.
func (ch *Chunk) runBounds(dst []int) []int {
	n := ch.Len()
	dst = append(dst, 0)
	for row := 1; row < n; row++ {
		if ch.compareRows(row-1, row) > 0 {
			if len(dst) == maxMergeRuns {
				return nil
			}
			dst = append(dst, row)
		}
	}
	return append(dst, n)
}

// mergeRuns fills perm with the chunk's rows in C-order by merging the
// ascending runs that start at bounds[r] and end before bounds[r+1]. A
// tie goes to the earlier run, which keeps the order stable.
func (ch *Chunk) mergeRuns(bounds []int, perm []int32) {
	k := len(bounds) - 1
	var heads [maxMergeRuns]int
	copy(heads[:], bounds[:k])
	if ch.NDims == 1 {
		c := ch.Coords[0]
		for out := range perm {
			best := -1
			for r := 0; r < k; r++ {
				if h := heads[r]; h < bounds[r+1] && (best < 0 || c[h] < c[heads[best]]) {
					best = r
				}
			}
			perm[out] = int32(heads[best])
			heads[best]++
		}
		return
	}
	for out := range perm {
		best := -1
		for r := 0; r < k; r++ {
			if h := heads[r]; h < bounds[r+1] && (best < 0 || ch.compareRows(h, heads[best]) < 0) {
				best = r
			}
		}
		perm[out] = int32(heads[best])
		heads[best]++
	}
}

// applyPerm rearranges s so that s[i] becomes the old s[perm[i]],
// gathering through buf, which it returns for reuse.
func applyPerm[T any](s []T, perm []int32, buf []T) []T {
	buf = slices.Grow(buf[:0], len(perm))[:len(perm)]
	for i, p := range perm {
		buf[i] = s[p]
	}
	copy(s, buf)
	return buf
}
