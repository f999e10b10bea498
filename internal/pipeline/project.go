package pipeline

import (
	"fmt"
	"math"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/par"
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

// projector turns a unit's match list into output columns. Each output
// coordinate and attribute is compiled once per query (buildOutput) to
// an expr: a source column of one side, copied by typed gather, or an
// Options.Select expression, evaluated over gathered columns a whole
// unit at a time.
type projector struct {
	rowDim bool
	dims   []source           // per destination dimension, unless rowDim
	attrs  []*expr            // per destination attribute
	types  []array.ScalarType // destination attribute types
	srcs   []source           // every source read, by slot
	vecs   int                // expression nodes, each with a result vector
}

// source is one value column of a unit's sides: coordinate idx, or store
// column idx (the side's key columns, then its carried attributes), of
// the left (side 0) or right (side 1) run.
type source struct {
	side  int
	isDim bool
	idx   int
	typ   array.ScalarType
	slot  int // where unitScratch holds the column
}

// expr is one compiled output expression. kind is the Value kind the
// AQL evaluator yields for it, int or float: a string column inside
// arithmetic counts as the float it parses to.
type expr struct {
	op   byte
	src  source      // OpCol
	lit  array.Value // OpLit
	l, r *expr
	kind array.ScalarType
	vec  int // the node's result vectors in unitScratch
}

func newProjector(js *logical.JoinSchema, sel []Expr) (*projector, error) {
	out := js.Pred.Out
	if sel != nil && len(sel) != len(out.Attrs) {
		return nil, fmt.Errorf("pipeline: %d select expressions for %d output attributes", len(sel), len(out.Attrs))
	}
	p := &projector{rowDim: len(out.Dims) == 0}
	r := resolver{js: js, nkey: len(js.Pred.Resolved.Left)}
	r.carry[0] = carryPositions(js.LeftCarry)
	r.carry[1] = carryPositions(js.RightCarry)
	if !p.rowDim {
		for _, d := range out.Dims {
			src, err := r.byName(d.Name)
			if err != nil {
				return nil, err
			}
			p.dims = append(p.dims, p.slot(src))
		}
	}
	for i, a := range out.Attrs {
		var e *expr
		if sel == nil {
			src, err := r.byName(a.Name)
			if err != nil {
				return nil, err
			}
			e = p.col(src)
		} else {
			e = p.compile(&sel[i], &r)
		}
		p.attrs = append(p.attrs, e)
		p.types = append(p.types, a.Type)
	}
	return p, nil
}

// slot gives src a slot of its own.
func (p *projector) slot(src source) source {
	src.slot = len(p.srcs)
	p.srcs = append(p.srcs, src)
	return src
}

// col is the expr reading one source column.
func (p *projector) col(src source) *expr {
	e := &expr{op: OpCol, src: p.slot(src), kind: kind(OpCol, src.typ, 0), vec: p.vecs}
	p.vecs++
	return e
}

// compile lowers one Select expression, typing every node as the AQL
// evaluator types its values. LogicalPlan checked the expression and
// carried every attribute it reads (selectCarry).
func (p *projector) compile(x *Expr, r *resolver) *expr {
	e := &expr{op: x.Op, lit: x.Lit}
	switch x.Op {
	case OpCol:
		f, _ := x.column([2]*array.Schema{r.js.Pred.Left, r.js.Pred.Right})
		src := source{side: f.side, isDim: true, idx: f.idx}
		if !f.isDim {
			src, _ = r.attr(f.side, f.idx)
		}
		return p.col(src)
	case OpLit:
		e.kind = x.Lit.Kind
	case OpNeg:
		e.l = p.compile(x.L, r)
		e.kind = kind(OpNeg, e.l.kind, 0)
	default:
		e.l, e.r = p.compile(x.L, r), p.compile(x.R, r)
		e.kind = kind(x.Op, e.l.kind, e.r.kind)
	}
	e.vec = p.vecs
	p.vecs++
	return e
}

// resolver finds the source columns of output fields in the join schema.
type resolver struct {
	js    *logical.JoinSchema
	nkey  int
	carry [2]map[int]int // per side: original attr index -> carry position
}

func carryPositions(carry []int) map[int]int {
	m := make(map[int]int, len(carry))
	for pos, idx := range carry {
		m[idx] = pos
	}
	return m
}

// attr is the source of side's attribute i, if it is carried.
func (r *resolver) attr(side, i int) (source, bool) {
	pos, ok := r.carry[side][i]
	if !ok {
		return source{}, false
	}
	s := r.js.Pred.Left
	if side == 1 {
		s = r.js.Pred.Right
	}
	return source{side: side, idx: r.nkey + pos, typ: s.Attrs[i].Type}, true
}

// byName finds where an output field of the destination's own naming
// comes from: a source dimension, a carried source attribute, or — when
// the name matches a predicate term — the corresponding key value.
func (r *resolver) byName(name string) (source, error) {
	src := r.js.Pred
	schemas := [2]*array.Schema{src.Left, src.Right}
	for side, s := range schemas {
		if i := s.DimIndex(name); i >= 0 {
			return source{side: side, isDim: true, idx: i}, nil
		}
		if i := s.AttrIndex(name); i >= 0 {
			if f, ok := r.attr(side, i); ok {
				return f, nil
			}
		}
	}
	// Predicate-name match: τ renames a joined pair (e.g. dimension v fed
	// by A.v = B.w). Use the left side's term.
	for pi, pair := range src.Resolved.Pred {
		if pair.Left.Name == name || pair.Right.Name == name {
			ref := src.Resolved.Left[pi]
			if ref.IsDim {
				return source{side: 0, isDim: true, idx: ref.Index}, nil
			}
			if f, ok := r.attr(0, ref.Index); ok {
				return f, nil
			}
		}
	}
	return source{}, fmt.Errorf("pipeline: output field %q has no source in %s or %s",
		name, src.Left.Name, src.Right.Name)
}

// column is one source column over a side's run: the storage of its
// type is set.
type column struct {
	ints  []int64
	fs    []float64
	codes []uint32
	strs  []string // the query's dictionary, for codes
}

// value is the column's row as the Value a decoded tuple would hold.
func (c *column) value(row int32) array.Value {
	switch {
	case c.ints != nil:
		return array.IntValue(c.ints[row])
	case c.fs != nil:
		return array.FloatValue(c.fs[row])
	}
	return array.StringValue(c.strs[c.codes[row]])
}

// unitScratch is one compare worker's reusable memory for a unit: the
// two sides' runs, the match list, the source columns over each run,
// and each expression node's result vectors.
type unitScratch struct {
	runs [2]batch.Run
	m    join.Matches
	cols []column
	vi   [][]int64 // per expression node: int results
	vf   [][]float64
}

// unitScratchPool is a par.Pool, not a sync.Pool, for the reason the
// join package's index pool is: the collector would drain it.
var unitScratchPool = par.NewPool[*unitScratch](512)

func getUnitScratch() *unitScratch {
	s, ok := unitScratchPool.Get()
	if !ok {
		s = new(unitScratch)
	}
	return s
}

// release drops the scratch's references into the unit's stores and
// returns it to the pool, unless the unit's matches grew it past
// batch.MaxPooledRows.
func (s *unitScratch) release() {
	for i := range s.runs {
		s.runs[i].Store = nil
	}
	clear(s.cols)
	s.cols = s.cols[:0]
	if len(s.m.L) <= batch.MaxPooledRows {
		unitScratchPool.Put(s)
	}
}

// load reads every source column the projector uses over its run, in
// place.
func (s *unitScratch) load(p *projector, strs []string) {
	s.cols = s.cols[:0]
	for _, src := range p.srcs {
		run := s.runs[src.side]
		var c column
		switch {
		case src.isDim:
			c.ints = run.Store.Coords[src.idx][run.Lo:run.Hi]
		case src.typ == array.TypeInt64:
			c.ints = run.Store.Cols[src.idx].Ints[run.Lo:run.Hi]
		case src.typ == array.TypeFloat64:
			c.fs = run.Store.Cols[src.idx].Fs[run.Lo:run.Hi]
		default:
			c.codes = run.Store.Cols[src.idx].Codes[run.Lo:run.Hi]
			c.strs = strs
		}
		s.cols = append(s.cols, c)
	}
}

// rows is the match list's row numbers into src's side.
func (s *unitScratch) rows(src source) []int32 {
	if src.side == 0 {
		return s.m.L
	}
	return s.m.R
}

// project writes the scratch's matches into a new part for
// Array.AppendParts: output columns shaped like the destination's chunks,
// sized for exactly the unit's matches. Parts are not pooled: a unit's
// part lives until Assemble, so a pool would hand the next query's units
// capacities in whatever order its workers ask, and the bytes a query
// allocates would vary from run to run. A synthetic row coordinate is the
// unit-local row number (0, 1, 2, …); fold renumbers it node-major (one
// counter over nodes ascending and each node's units in assignment
// order) when it merges the units in deterministic order.
func (p *projector) project(out *array.Schema, s *unitScratch, strs []string) *array.Chunk {
	n := len(s.m.L)
	s.load(p, strs)
	c := &array.Chunk{NDims: len(out.Dims)}
	c.Coords = make([][]int64, len(out.Dims))
	if p.rowDim {
		rows := make([]int64, n)
		for i := range rows {
			rows[i] = int64(i)
		}
		c.Coords[0] = rows
	}
	for d, src := range p.dims {
		dst := make([]int64, n)
		rows, col := s.rows(src), &s.cols[src.slot]
		if col.ints != nil {
			gather(dst, col.ints, rows)
		} else {
			for i, row := range rows {
				dst[i] = col.value(row).AsInt()
			}
		}
		c.Coords[d] = dst
	}
	c.Cols = make([]array.Column, len(p.attrs))
	for i, e := range p.attrs {
		c.Cols[i] = p.attr(e, p.types[i], s, n)
	}
	return c
}

// attr computes one output attribute column of n rows: a source column
// of the attribute's own type by typed gather, anything else as
// Column.Append converts the value the AQL evaluator yields.
func (p *projector) attr(e *expr, typ array.ScalarType, s *unitScratch, n int) array.Column {
	out := array.Column{Type: typ}
	if e.op == OpCol {
		rows, col := s.rows(e.src), &s.cols[e.src.slot]
		switch {
		case typ == array.TypeInt64 && e.src.typ == typ:
			out.Ints = make([]int64, n)
			gather(out.Ints, col.ints, rows)
		case typ == array.TypeFloat64 && e.src.typ == typ:
			out.Fs = make([]float64, n)
			gather(out.Fs, col.fs, rows)
		case typ == array.TypeString && e.src.typ == typ:
			out.Strs = make([]string, n)
			for i, row := range rows {
				out.Strs[i] = col.strs[col.codes[row]]
			}
		default:
			for _, row := range rows {
				out.Append(col.value(row))
			}
		}
		return out
	}
	ints, fs := s.eval(e, n)
	switch {
	case typ == array.TypeInt64 && e.kind == array.TypeInt64:
		out.Ints = slices.Clone(ints)
	case typ == array.TypeInt64:
		// A float into an int attribute truncates.
		out.Ints = make([]int64, n)
		for i, f := range fs {
			out.Ints[i] = int64(f)
		}
	case typ == array.TypeFloat64 && e.kind == array.TypeFloat64:
		out.Fs = slices.Clone(fs)
	case e.kind == array.TypeInt64:
		for _, v := range ints {
			out.Append(array.IntValue(v))
		}
	default:
		for _, f := range fs {
			out.Append(array.FloatValue(f))
		}
	}
	return out
}

// gather copies src[rows[i]] into dst[i].
func gather[T any](dst, src []T, rows []int32) {
	for i, row := range rows {
		dst[i] = src[row]
	}
}

// vec returns node e's int and float result vectors, sized n.
func (s *unitScratch) vec(e *expr, n int) ([]int64, []float64) {
	for len(s.vi) <= e.vec {
		s.vi, s.vf = append(s.vi, nil), append(s.vf, nil)
	}
	s.vi[e.vec] = slices.Grow(s.vi[e.vec][:0], n)[:n]
	s.vf[e.vec] = slices.Grow(s.vf[e.vec][:0], n)[:n]
	return s.vi[e.vec], s.vf[e.vec]
}

// eval evaluates e over the unit's n matches with the AQL evaluator's
// rules — int op int is int, anything else float, '/' float with a zero
// divisor giving NaN — and returns its int results when its kind is
// int, its float results otherwise.
func (s *unitScratch) eval(e *expr, n int) ([]int64, []float64) {
	vi, vf := s.vec(e, n)
	switch e.op {
	case OpCol:
		rows, col := s.rows(e.src), &s.cols[e.src.slot]
		switch {
		case col.ints != nil:
			gather(vi, col.ints, rows)
		case col.fs != nil:
			gather(vf, col.fs, rows)
		default:
			for i, row := range rows {
				vf[i] = col.value(row).AsFloat()
			}
		}
	case OpLit:
		for i := range vi {
			vi[i], vf[i] = e.lit.Int, e.lit.F
		}
	case OpNeg:
		if e.kind == array.TypeInt64 {
			a, _ := s.eval(e.l, n)
			for i, v := range a {
				vi[i] = -v
			}
			break
		}
		for i, v := range s.floats(e.l, n) {
			vf[i] = -v
		}
	default:
		if e.kind == array.TypeInt64 {
			a, _ := s.eval(e.l, n)
			b, _ := s.eval(e.r, n)
			arith(e.op, vi, a, b)
			break
		}
		a, b := s.floats(e.l, n), s.floats(e.r, n)
		if e.op != '/' {
			arith(e.op, vf, a, b)
			break
		}
		for i := range vf {
			if b[i] == 0 {
				vf[i] = math.NaN()
			} else {
				vf[i] = a[i] / b[i]
			}
		}
	}
	return vi, vf
}

// arith sets dst[i] = a[i] op b[i] for op '+', '-' or '*'.
func arith[T int64 | float64](op byte, dst, a, b []T) {
	switch op {
	case '+':
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case '-':
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case '*':
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	}
}

// floats evaluates e and returns its results as float64s, converting an
// int node's into its float vector.
func (s *unitScratch) floats(e *expr, n int) []float64 {
	vi, vf := s.eval(e, n)
	if e.kind == array.TypeInt64 {
		for i, v := range vi {
			vf[i] = float64(v)
		}
	}
	return vf
}
