package array

import (
	"slices"

	"shufflejoin/internal/par"
)

// Rejection locates AppendParts' strict-bounds rejection: cell Row of
// part Part has a coordinate outside its dimension's declared range. Err,
// from Dimension.Clamp, wraps ErrBounds. Callers name the cell in their
// own terms (Reorganize by its source coordinates) and wrap Err.
type Rejection struct {
	Part, Row int
	Err       error
}

// AppendParts is the array's one columnar write path. It takes in parts,
// chunks of the array's shape (a coordinate column per dimension, an
// attribute column per attribute, of its type) whose cells may fall in
// any chunk, and appends each cell to the chunk it falls in. Every
// coordinate goes through Dimension.Clamp in place; the result counts the
// cells that had one clamped. Under strict bounds the first out-of-range
// cell, in part order and then row order, is rejected and nothing is
// appended. Each chunk is sized once; each part's rows reach their chunks
// in row order, one Chunk.AppendColumns per (part, chunk) pair, so a chunk
// holds its cells in part order, then row order. flow, when not nil, sees
// each pair's cell count, in part order, before anything is appended.
// Attribute columns of parts are only read, so a part may share them.
func (a *Array) AppendParts(parts []*Chunk, strict bool, flow func(part int, key ChunkKey, cells int)) (int64, *Rejection) {
	var clamped int64
	for p, part := range parts {
		first := part.Len() // the first row with a coordinate out of range
		for d, dim := range a.Schema.Dims {
			for row, v := range part.Coords[d][:first] {
				if !dim.Contains(v) {
					first = row
					break
				}
			}
		}
		for row := first; row < part.Len(); row++ {
			moved := false
			for d, dim := range a.Schema.Dims {
				if v := part.Coords[d][row]; !dim.Contains(v) {
					c, err := dim.Clamp(v, strict)
					if err != nil {
						return 0, &Rejection{Part: p, Row: row, Err: err}
					}
					part.Coords[d][row], moved = c, true
				}
			}
			if moved {
				clamped++
			}
		}
	}
	r, ok := routerPool.Get()
	if !ok {
		r = new(router)
	}
	r.reset(a)
	sizes := make(map[ChunkKey]int) // rows bound for each chunk
	for p, part := range parts {
		r.group(part)
		var end int32
		for b := r.spans[p].bucket; b < len(r.bkeys); b++ {
			key, n := r.bkeys[b], int(r.ends[b]-end)
			end = r.ends[b]
			sizes[key] += n
			if flow != nil {
				flow(p, key, n)
			}
		}
	}
	r.spans = append(r.spans, partSpan{bucket: len(r.bkeys)}) // one past the last part
	for key, n := range sizes {
		a.Chunk(key).Grow(n)
	}
	for p, part := range parts {
		r.route(p, part)
	}
	if max(cap(r.keys), cap(r.bucket), cap(r.rows)) <= maxPooledRouteRows {
		r.a = nil
		routerPool.Put(r)
	}
	return clamped, nil
}

// router groups parts' rows by the chunk they fall in, once per part:
// AppendParts sizes the chunks from the groups, then routes each part by
// its group. routerPool recycles routers, buffers and all.
type router struct {
	a      *Array
	keys   []ChunkKey         // per row of the part being grouped: its chunk
	bucket []int32            // per row of the part being grouped: its bucket
	ids    map[ChunkKey]int32 // the part being grouped's buckets by chunk
	bkeys  []ChunkKey         // per bucket, the parts' in turn: its chunk
	ends   []int32            // per bucket: its end among its part's rows
	rows   []int32            // each part of several buckets: its rows by bucket
	spans  []partSpan         // per part, then one past: its first bucket and row
}

// partSpan locates one part's group in a router: its buckets start at
// bkeys[bucket], and, when it has more than one, its grouped rows at
// rows[row].
type partSpan struct{ bucket, row int }

var routerPool = par.NewPool[*router](8)

// maxPooledRouteRows bounds the buffers routerPool keeps: a router grown
// for more rows is left to the collector.
const maxPooledRouteRows = 1 << 20

// reset empties the router for a call of AppendParts on a.
func (r *router) reset(a *Array) {
	r.a = a
	r.bkeys, r.ends, r.rows, r.spans = r.bkeys[:0], r.ends[:0], r.rows[:0], r.spans[:0]
}

// group appends part's buckets, the chunks its rows fall in numbered in
// order of first appearance: bkeys[b] is bucket b's chunk and ends[b]
// where its rows end among the part's rows, so its row count is ends[b]
// less the previous bucket's end (or 0 for the part's first). A part of
// more than one bucket also appends its row numbers to rows, grouped by
// bucket and in row order within each. Only a row whose key differs from
// the row before it looks its bucket up. An empty part has no buckets.
func (r *router) group(part *Chunk) {
	first := len(r.bkeys)
	r.spans = append(r.spans, partSpan{bucket: first, row: len(r.rows)})
	n := part.Len()
	if n == 0 {
		return
	}
	if key, ok := r.oneChunk(part); ok {
		r.bkeys, r.ends = append(r.bkeys, key), append(r.ends, int32(n))
		return
	}
	keys := slices.Grow(r.keys[:0], n)[:n]
	clear(keys)
	for d, dim := range r.a.Schema.Dims {
		count := ChunkKey(dim.ChunkCount())
		for i, v := range part.Coords[d] {
			keys[i] = keys[i]*count + ChunkKey(dim.ChunkIndex(v))
		}
	}
	if r.ids == nil {
		r.ids = make(map[ChunkKey]int32)
	}
	clear(r.ids)
	r.keys, r.bucket = keys, slices.Grow(r.bucket[:0], n)[:n]
	var b int32
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			var ok bool
			if b, ok = r.ids[k]; !ok {
				b = int32(len(r.bkeys) - first)
				r.ids[k] = b
				r.bkeys, r.ends = append(r.bkeys, k), append(r.ends, 0)
			}
		}
		r.bucket[i] = b
		r.ends[first+int(b)]++
	}
	// Counting sort of the rows by bucket: ends[b], summed, is where
	// bucket b's next row goes, and once every row is placed, its end.
	ends := r.ends[first:]
	var at int32
	for b, c := range ends {
		ends[b] = at
		at += c
	}
	from := len(r.rows)
	r.rows = slices.Grow(r.rows, n)[:from+n]
	rows := r.rows[from:]
	for i, b := range r.bucket {
		rows[ends[b]] = int32(i)
		ends[b]++
	}
}

// oneChunk reports whether every row of part falls in the chunk of its
// first row, and which, in one pass over each coordinate column that
// stops at the first row outside that chunk's range.
func (r *router) oneChunk(part *Chunk) (ChunkKey, bool) {
	var key ChunkKey
	for d, dim := range r.a.Schema.Dims {
		col := part.Coords[d]
		idx := dim.ChunkIndex(col[0])
		lo := dim.Start + idx*dim.ChunkInterval
		for _, v := range col {
			if uint64(v-lo) >= uint64(dim.ChunkInterval) {
				return 0, false
			}
		}
		key = key*ChunkKey(dim.ChunkCount()) + ChunkKey(idx)
	}
	return key, true
}

// route appends every row of part p, grouped already, to the chunk it
// falls in, each bucket's rows with one AppendColumns.
func (r *router) route(p int, part *Chunk) {
	from, to := r.spans[p].bucket, r.spans[p+1].bucket
	if to-from == 1 {
		r.a.Chunks[r.bkeys[from]].AppendColumns(part, nil)
		return
	}
	rows := r.rows[r.spans[p].row:]
	var start int32
	for b := from; b < to; b++ {
		r.a.Chunks[r.bkeys[b]].AppendColumns(part, rows[start:r.ends[b]])
		start = r.ends[b]
	}
}
