package array

import (
	"math/bits"
	"slices"

	"shufflejoin/internal/par"
)

// radixBits is the widest digit of the radix sort: a pass counts into at
// most 2^radixBits buckets, and a 64-bit key word takes at most
// maxRadixPasses passes of digits that wide. A narrower digit, which a
// small chunk takes, means more passes of fewer buckets, whose
// histograms together still fit in maxRadixPasses << radixBits counts.
const (
	radixBits      = 11
	maxRadixPasses = (64 + radixBits - 1) / radixBits
)

// sortScratch is Sort's row permutations, packed keys and per-dimension
// key layout, and the buffers it gathers columns through. The keys are
// kept as int64 bit patterns so that ints, the gather buffer, is the
// radix sort's second key buffer. sortPool recycles them, so a sort
// allocates nothing once the pool holds buffers of the chunk's length.
// It is a par.Pool, not a sync.Pool: a collection would empty a
// sync.Pool between queries at random, and each sort that missed would
// allocate its buffers afresh.
type sortScratch struct {
	perm, perm2 []int32
	keys        []int64
	dims        []keyDim
	ints        []int64
	fs          []float64
	strs        []string
	hist        [maxRadixPasses << radixBits]int32
}

// keyDim places one dimension's offsets in a packed key word: a row's
// offset is its coordinate less min, both taken as uint64, and sits
// width bits wide from bit shift of its word.
type keyDim struct {
	min          uint64
	width, shift uint
}

var sortPool = par.NewPool[*sortScratch](8)

// maxPooledSortRows bounds the scratch sortPool keeps: buffers grown for
// a larger chunk are left to the collector, so one huge sort does not
// pin them for the life of the process.
const maxPooledSortRows = 1 << 20

// Sort sorts the chunk's cells into C-order on the coordinates, stably:
// cells with equal coordinates keep their order. It is the in-chunk sort
// invoked by the redimension operator. Table 1 prices it at n·log n per
// chunk, and the cost model keeps that formula, but for d dimensions the
// code is linear in n:
//   - one pass, O(n·d), checks whether the rows already ascend; such a
//     chunk (every chunk of a row-numbered join output) is left as it is;
//   - any other chunk is radix sorted on packed C-order keys
//     (radixSort), ties kept in row order: O(n·d) to build the keys and
//     O(n) per pass, at most maxRadixPasses passes per 64-bit key word.
//
// Each column is then gathered into the new order through a pooled
// buffer and copied back, O(n) per column. A chunk holds fewer than 2^31
// cells.
func (ch *Chunk) Sort() {
	if ch.Sorted || ch.NDims == 0 || ch.ascendingFrom(1) {
		ch.Sorted = true
		return
	}
	n := ch.Len()
	sc, ok := sortPool.Get()
	if !ok {
		sc = new(sortScratch)
	}
	sc.perm = slices.Grow(sc.perm[:0], n)[:n]
	ch.radixSort(sc)
	perm := sc.perm
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
		sortPool.Put(sc)
	}
	ch.Sorted = true
}

// radixSort leaves in sc.perm the chunk's rows in C-order, ties in row
// order: a stable LSD radix sort on packed keys, with no comparator.
// A row's offset in dimension d is uint64(v) - uint64(min_d), which
// keeps C-order within the dimension for any extent. The offsets are
// packed from the last dimension outward into 64-bit words, the first
// dimension in the most significant bits; a dimension that does not fit
// in the current word starts the next. Each word, the innermost first,
// is sorted by sortWord, so the last pass orders the rows on the first
// dimension.
func (ch *Chunk) radixSort(sc *sortScratch) {
	for i := range sc.perm {
		sc.perm[i] = int32(i)
	}
	sc.dims = slices.Grow(sc.dims[:0], ch.NDims)[:ch.NDims]
	for d, c := range ch.Coords {
		lo, hi := c[0], c[0]
		for _, v := range c[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		sc.dims[d] = keyDim{min: uint64(lo), width: uint(bits.Len64(uint64(hi) - uint64(lo)))}
	}
	for end := ch.NDims; end > 0; {
		start, used := end, uint(0)
		for start > 0 && used+sc.dims[start-1].width <= 64 {
			start--
			sc.dims[start].shift = used
			used += sc.dims[start].width
		}
		if used > 0 {
			ch.sortWord(sc, start, end, used)
		}
		end = start
	}
}

// sortWord stably reorders sc.perm on the key word packed from
// dimensions start to end-1, used bits wide. The word is split into
// equal digits of at most radixBits bits, and of at most as many bits as
// the row count has, so a small chunk's passes do not each clear and sum
// 2^radixBits buckets; one read of the keys counts every digit's
// histogram, and a pass whose digit is the same for every row is
// skipped. Each pass scatters keys and rows together.
func (ch *Chunk) sortWord(sc *sortScratch, start, end int, used uint) {
	n := len(sc.perm)
	keys := slices.Grow(sc.keys[:0], n)[:n]
	clear(keys)
	for d := start; d < end; d++ {
		c, k := ch.Coords[d], sc.dims[d]
		for i, p := range sc.perm {
			keys[i] |= int64((uint64(c[p]) - k.min) << k.shift)
		}
	}
	digit := min(radixBits, uint(bits.Len(uint(n))))
	passes := (used + digit - 1) / digit
	width := (used + passes - 1) / passes
	mask := uint64(1)<<width - 1
	hist := sc.hist[:passes<<width]
	clear(hist)
	for _, k := range keys {
		for p := uint(0); p < passes; p++ {
			hist[p<<width|uint(uint64(k)>>(p*width)&mask)]++
		}
	}
	tmp := slices.Grow(sc.ints[:0], n)[:n]
	perm, perm2 := sc.perm, slices.Grow(sc.perm2[:0], n)[:n]
	for p := uint(0); p < passes; p++ {
		shift, count := p*width, hist[p<<width:(p+1)<<width]
		if count[uint64(keys[0])>>shift&mask] == int32(n) {
			continue
		}
		var at int32
		for b, c := range count {
			count[b] = at
			at += c
		}
		for i, k := range keys {
			b := uint64(k) >> shift & mask
			j := count[b]
			count[b]++
			tmp[j], perm2[j] = k, perm[i]
		}
		keys, tmp = tmp, keys
		perm, perm2 = perm2, perm
	}
	sc.keys, sc.ints = keys, tmp
	sc.perm, sc.perm2 = perm, perm2
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
