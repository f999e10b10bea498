package array

import "slices"

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
	r := router{a: a}
	sizes := make(map[ChunkKey]int) // rows bound for each chunk
	for p, part := range parts {
		r.group(part)
		for b, key := range r.bkeys {
			sizes[key] += int(r.ends[b])
			if flow != nil {
				flow(p, key, int(r.ends[b]))
			}
		}
	}
	for key, n := range sizes {
		a.Chunk(key).Grow(n)
	}
	for _, part := range parts {
		r.route(part)
	}
	return clamped, nil
}

// router groups a part's rows by the chunk they fall in. Its buffers are
// reused from part to part.
type router struct {
	a      *Array
	keys   []ChunkKey // per row: its chunk
	bucket []int32    // per row: its bucket, unless one bucket holds every row
	rows   []int32    // row numbers grouped by bucket
	ends   []int32    // per bucket: its row count, then its end in rows
	bkeys  []ChunkKey // per bucket: its chunk
	ids    map[ChunkKey]int32
}

// group numbers the chunks part's rows fall in as buckets, in order of
// first appearance: bkeys[b] is bucket b's chunk, ends[b] its row count
// and bucket[row] the row's bucket. Only a row whose key differs from the
// row before it looks its bucket up. An empty part has no buckets.
func (r *router) group(part *Chunk) {
	r.bkeys, r.ends, r.bucket = r.bkeys[:0], r.ends[:0], r.bucket[:0]
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
	r.keys, r.bucket = keys, slices.Grow(r.bucket, n)[:n]
	var b int32
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			var ok bool
			if b, ok = r.ids[k]; !ok {
				b = int32(len(r.bkeys))
				r.ids[k] = b
				r.bkeys, r.ends = append(r.bkeys, k), append(r.ends, 0)
			}
		}
		r.bucket[i] = b
		r.ends[b]++
	}
}

// oneChunk reports whether every row of part falls in one chunk, and
// which, from each coordinate column's range alone.
func (r *router) oneChunk(part *Chunk) (ChunkKey, bool) {
	var key ChunkKey
	for d, dim := range r.a.Schema.Dims {
		col := part.Coords[d]
		lo, hi := slices.Min(col), slices.Max(col)
		idx := dim.ChunkIndex(lo)
		if dim.ChunkIndex(hi) != idx {
			return 0, false
		}
		key = key*ChunkKey(dim.ChunkCount()) + ChunkKey(idx)
	}
	return key, true
}

// route appends every row of part to the chunk it falls in, each
// bucket's rows with one AppendColumns.
func (r *router) route(part *Chunk) {
	r.group(part)
	if len(r.bkeys) == 1 {
		r.a.Chunks[r.bkeys[0]].AppendColumns(part, nil)
		return
	}
	// Counting sort of the rows by bucket: ends[b], summed, is where
	// bucket b's next row goes, and once every row is placed, its end.
	var at int32
	for b, n := range r.ends {
		r.ends[b] = at
		at += n
	}
	rows := slices.Grow(r.rows[:0], len(r.bucket))[:len(r.bucket)]
	r.rows = rows
	for i, b := range r.bucket {
		rows[r.ends[b]] = int32(i)
		r.ends[b]++
	}
	var start int32
	for b, key := range r.bkeys {
		r.a.Chunks[key].AppendColumns(part, rows[start:r.ends[b]])
		start = r.ends[b]
	}
}
