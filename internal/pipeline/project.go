package pipeline

import (
	"fmt"
	"math"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
)

// ErrBounds is wrapped by every strict-bounds rejection — an output cell
// in Assemble or a redistributed cell in Redistribute whose value falls
// outside the dimension it is bound for. Match it with errors.Is.
var ErrBounds = array.ErrBounds

// newOutputArray materializes the destination schema. A destination with
// no dimensions (unordered output, e.g. INTO T<i:int,j:int>[]) gets a
// synthetic row dimension.
func newOutputArray(js *logical.JoinSchema) (*array.Array, error) {
	out := js.Pred.Out.Clone()
	if len(out.Dims) == 0 {
		out.Dims = []array.Dimension{{Name: "row_", Start: 0, End: math.MaxInt64 / 2, ChunkInterval: 1 << 20}}
	}
	return array.New(out)
}

// projector maps a matched tuple pair to an output cell, appended to a
// unit's output columns.
type projector struct {
	js       *logical.JoinSchema
	dimSrc   []fieldSrc
	attrSrc  []fieldSrc
	rowDim   bool
	carryPos [2]map[int]int // original attr index -> tuple.Attrs position
	attrFn   func(dst []array.Value, l, r *join.Tuple)
}

// fieldSrc locates one output field's value in a matched pair.
type fieldSrc struct {
	side  int // 0 = left tuple, 1 = right tuple
	isDim bool
	idx   int // coords index, or position within tuple.Attrs
}

func newProjector(js *logical.JoinSchema, attrFn func(dst []array.Value, l, r *join.Tuple)) (*projector, error) {
	p := &projector{js: js, attrFn: attrFn}
	p.carryPos[0] = carryPositions(js.LeftCarry)
	p.carryPos[1] = carryPositions(js.RightCarry)
	out := js.Pred.Out
	if len(out.Dims) == 0 {
		p.rowDim = true
	} else {
		for _, d := range out.Dims {
			src, err := p.resolveField(d.Name)
			if err != nil {
				return nil, err
			}
			p.dimSrc = append(p.dimSrc, src)
		}
	}
	if attrFn == nil {
		for _, a := range out.Attrs {
			src, err := p.resolveField(a.Name)
			if err != nil {
				return nil, err
			}
			p.attrSrc = append(p.attrSrc, src)
		}
	}
	return p, nil
}

func carryPositions(carry []int) map[int]int {
	m := make(map[int]int, len(carry))
	for pos, idx := range carry {
		m[idx] = pos
	}
	return m
}

// resolveField finds where an output field's value comes from: a source
// dimension, a carried source attribute, or — when the name matches a
// predicate term — the corresponding key value.
func (p *projector) resolveField(name string) (fieldSrc, error) {
	src := p.js.Pred
	schemas := [2]*array.Schema{src.Left, src.Right}
	for side, s := range schemas {
		if i := s.DimIndex(name); i >= 0 {
			return fieldSrc{side: side, isDim: true, idx: i}, nil
		}
		if i := s.AttrIndex(name); i >= 0 {
			if pos, ok := p.carryPos[side][i]; ok {
				return fieldSrc{side: side, isDim: false, idx: pos}, nil
			}
		}
	}
	// Predicate-name match: τ renames a joined pair (e.g. dimension v fed
	// by A.v = B.w). Use the left side's term.
	for pi, pair := range src.Resolved.Pred {
		if pair.Left.Name == name || pair.Right.Name == name {
			ref := src.Resolved.Left[pi]
			if ref.IsDim {
				return fieldSrc{side: 0, isDim: true, idx: ref.Index}, nil
			}
			if pos, ok := p.carryPos[0][ref.Index]; ok {
				return fieldSrc{side: 0, isDim: false, idx: pos}, nil
			}
		}
	}
	return fieldSrc{}, fmt.Errorf("pipeline: output field %q has no source in %s or %s",
		name, src.Left.Name, src.Right.Name)
}

// value reads the field from the matched pair.
func (src fieldSrc) value(l, r *join.Tuple) array.Value {
	t := l
	if src.side == 1 {
		t = r
	}
	if src.isDim {
		return array.IntValue(t.Coords[src.idx])
	}
	return t.Attrs[src.idx]
}

// project appends the output cell of a matched pair to a unit's columns.
// A synthetic row coordinate is the unit-local row number (0, 1, 2, …);
// fold renumbers it to the destination node's stride-K sequence (node,
// node+K, node+2K, … — disjoint across nodes) when it merges the units in
// deterministic order.
func (p *projector) project(c *outCols, l, r *join.Tuple) {
	if n := c.Len(); n == c.room {
		// Double every column at once: appends grow a large slice by a
		// quarter at a time, copying it over and over.
		c.Grow(max(n, 64))
		c.room = n + max(n, 64)
	}
	if p.rowDim {
		c.Coords[0] = append(c.Coords[0], int64(len(c.Coords[0])))
	} else {
		for i, src := range p.dimSrc {
			c.Coords[i] = append(c.Coords[i], src.value(l, r).AsInt())
		}
	}
	if p.attrFn != nil {
		p.attrFn(c.vals, l, r)
		for i, v := range c.vals {
			c.Cols[i].Append(v)
		}
		return
	}
	for i, src := range p.attrSrc {
		c.Cols[i].Append(src.value(l, r))
	}
}

// outCols is one join unit's output: the coordinate and attribute columns
// of its cells, shaped like the destination's chunks, and the values the
// attribute evaluator fills per match. A unit makes its own at its first
// match, so a unit that emits nothing allocates nothing. They are not
// pooled: a unit's columns live until Assemble, so a pool would hand the
// next query's units capacities in whatever order its workers ask, and
// the bytes a query allocates would vary from run to run.
type outCols struct {
	array.Chunk
	room int // rows every column has capacity for
	vals []array.Value
}

// newOutCols returns empty columns shaped for schema s; the first match
// gives them their capacity.
func newOutCols(s *array.Schema) *outCols {
	c := &outCols{vals: make([]array.Value, len(s.Attrs))}
	c.NDims = len(s.Dims)
	c.Coords = make([][]int64, len(s.Dims))
	c.Cols = make([]array.Column, len(s.Attrs))
	for i, a := range s.Attrs {
		c.Cols[i].Type = a.Type
	}
	return c
}

// clamp applies Dimension.Clamp to every coordinate of the columns,
// column by column, and returns how many cells had a coordinate clamped.
// Under strict bounds the first out-of-range cell, in row order, is an
// error naming it.
func (c *outCols) clamp(dims []array.Dimension, strict bool) (int64, error) {
	n := c.Len()
	first := n // the first row with a coordinate out of range
	for d, dim := range dims {
		for row, v := range c.Coords[d][:first] {
			if !dim.Contains(v) {
				first = row
				break
			}
		}
	}
	if first == n {
		return 0, nil
	}
	if strict {
		for d, dim := range dims {
			if _, err := dim.Clamp(c.Coords[d][first], true); err != nil {
				return 0, fmt.Errorf("pipeline: output cell %v: %w", c.CoordsAt(first, nil), err)
			}
		}
	}
	var clamped int64
	for row := first; row < n; row++ {
		moved := false
		for d, dim := range dims {
			if v := c.Coords[d][row]; !dim.Contains(v) {
				c.Coords[d][row], _ = dim.Clamp(v, false)
				moved = true
			}
		}
		if moved {
			clamped++
		}
	}
	return clamped, nil
}

// chunkRouter appends output columns to the destination's chunks. It
// buckets the rows of each part by chunk key, stably, so every chunk
// receives its rows in emit order, and appends each bucket with one
// Chunk.AppendColumns. Counting every part's rows first lets it size each
// chunk once. Its buffers are reused from part to part.
type chunkRouter struct {
	out    *array.Array
	types  []array.ScalarType     // attribute types, for new chunks
	sizes  map[array.ChunkKey]int // rows bound for each chunk
	keys   []array.ChunkKey       // per row: its chunk
	bucket []int32                // per row: its bucket
	rows   []int32                // row numbers grouped by bucket
	pos    []int32                // per bucket: its row count, then its place in rows
	bkeys  []array.ChunkKey       // per bucket: its chunk
	ids    map[array.ChunkKey]int32
}

// keysOf returns the chunk key of every row of part, in r's buffer.
func (r *chunkRouter) keysOf(part *outCols) []array.ChunkKey {
	n := part.Len()
	keys := slices.Grow(r.keys[:0], n)[:n]
	r.keys = keys
	clear(keys)
	for d, dim := range r.out.Schema.Dims {
		count := array.ChunkKey(dim.ChunkCount())
		for i, v := range part.Coords[d] {
			keys[i] = keys[i]*count + array.ChunkKey(dim.ChunkIndex(v))
		}
	}
	return keys
}

// oneChunk reports whether every row of part falls in one chunk, and
// which, from each coordinate column's range alone.
func (r *chunkRouter) oneChunk(part *outCols) (array.ChunkKey, bool) {
	var key array.ChunkKey
	for d, dim := range r.out.Schema.Dims {
		col := part.Coords[d]
		lo, hi := slices.Min(col), slices.Max(col)
		idx := dim.ChunkIndex(lo)
		if dim.ChunkIndex(hi) != idx {
			return 0, false
		}
		key = key*array.ChunkKey(dim.ChunkCount()) + array.ChunkKey(idx)
	}
	return key, true
}

// count adds the rows of part to the sizes of the chunks they fall in.
func (r *chunkRouter) count(part *outCols) {
	if r.sizes == nil {
		r.sizes = make(map[array.ChunkKey]int)
	}
	if key, ok := r.oneChunk(part); ok {
		r.sizes[key] += part.Len()
		return
	}
	keys := r.keysOf(part)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		r.sizes[keys[i]] += j - i
		i = j
	}
}

// reserve creates every counted chunk with room for its rows.
func (r *chunkRouter) reserve() {
	for key, n := range r.sizes {
		r.chunk(key).Grow(n)
	}
}

// route appends every row of part to the chunk its coordinates fall in.
func (r *chunkRouter) route(part *outCols) {
	if key, ok := r.oneChunk(part); ok {
		r.chunk(key).AppendColumns(&part.Chunk, nil)
		return
	}
	keys := r.keysOf(part)
	n := len(keys)
	// Counting sort of the rows by bucket, buckets numbered in order of
	// first appearance: pos[b] counts bucket b's rows, then, summed,
	// holds where the next of them goes.
	if r.ids == nil {
		r.ids = make(map[array.ChunkKey]int32)
	}
	clear(r.ids)
	r.bkeys, r.pos = r.bkeys[:0], r.pos[:0]
	bucket := slices.Grow(r.bucket[:0], n)[:n]
	r.bucket = bucket
	for i, k := range keys {
		b, ok := r.ids[k]
		if !ok {
			b = int32(len(r.bkeys))
			r.ids[k] = b
			r.bkeys = append(r.bkeys, k)
			r.pos = append(r.pos, 0)
		}
		bucket[i] = b
		r.pos[b]++
	}
	var at int32
	for b, cnt := range r.pos {
		r.pos[b] = at
		at += cnt
	}
	rows := slices.Grow(r.rows[:0], n)[:n]
	r.rows = rows
	for i, b := range bucket {
		rows[r.pos[b]] = int32(i)
		r.pos[b]++
	}
	start := int32(0)
	for b, k := range r.bkeys {
		end := r.pos[b] // bucket b's rows are placed: pos[b] is its end
		r.chunk(k).AppendColumns(&part.Chunk, rows[start:end])
		start = end
	}
}

// chunk returns the destination chunk at key, creating it when absent.
func (r *chunkRouter) chunk(key array.ChunkKey) *array.Chunk {
	ch, ok := r.out.Chunks[key]
	if !ok {
		if r.types == nil {
			r.types = make([]array.ScalarType, len(r.out.Schema.Attrs))
			for i, a := range r.out.Schema.Attrs {
				r.types[i] = a.Type
			}
		}
		ch = array.NewChunk(key, len(r.out.Schema.Dims), r.types)
		r.out.Chunks[key] = ch
	}
	return ch
}
