// Package afl implements the Array Functional Language of the ADM
// (Section 2.2 of the paper): composable operator expressions such as
//
//	merge(A, redim(B, <v1:int, v2:float>[i=1,6,3, j=1,6,3]))
//	filter(A, v1 > 5)
//
// with a single-node evaluator over in-memory arrays. The schema
// reorganization operators here — redim, rechunk, sort, scan — are the
// operators of the logical planner's Table 1, implemented for real; the
// repository's operator benchmarks validate the planner's cost formulas
// against them.
package afl

import (
	"fmt"
	"sort"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
)

// Node is one AFL expression node.
type Node struct {
	Op     string        // "array" for a leaf reference, else the operator
	Name   string        // leaf: array name
	Args   []*Node       // operand subexpressions
	Schema *array.Schema // redim/rechunk target
	Cond   *Condition    // filter predicate
	Fields []string      // project field list
	Lo, Hi []int64       // between window bounds
	AName  string        // apply: new attribute name
	AExpr  *ApplyExpr    // apply: computed expression
}

// Condition is a filter comparison: attribute OP literal.
type Condition struct {
	Attr string
	Op   string // > < >= <= = !=
	Val  array.Value
}

func (c *Condition) String() string {
	return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Val)
}

// String renders the expression back to AFL text.
func (n *Node) String() string {
	switch n.Op {
	case "array":
		return n.Name
	case "filter":
		return fmt.Sprintf("filter(%s, %s)", n.Args[0], n.Cond)
	case "project":
		return fmt.Sprintf("project(%s, %s)", n.Args[0], strings.Join(n.Fields, ", "))
	case "redim", "rechunk":
		return fmt.Sprintf("%s(%s, %s)", n.Op, n.Args[0], schemaBody(n.Schema))
	case "between":
		s := n.Args[0].String()
		for _, v := range n.Lo {
			s += fmt.Sprintf(", %d", v)
		}
		for _, v := range n.Hi {
			s += fmt.Sprintf(", %d", v)
		}
		return fmt.Sprintf("between(%s)", s)
	case "apply":
		return fmt.Sprintf("apply(%s, %s, %s)", n.Args[0], n.AName, n.AExpr)
	default:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = a.String()
		}
		return fmt.Sprintf("%s(%s)", n.Op, strings.Join(parts, ", "))
	}
}

// schemaBody prints a schema without its (possibly empty) name.
func schemaBody(s *array.Schema) string {
	full := s.String()
	return strings.TrimPrefix(full, s.Name)
}

// Env maps array names to arrays for evaluation.
type Env map[string]*array.Array

// Eval evaluates an AFL expression tree.
func Eval(n *Node, env Env) (*array.Array, error) {
	switch n.Op {
	case "array":
		a, ok := env[n.Name]
		if !ok {
			return nil, fmt.Errorf("afl: unknown array %q", n.Name)
		}
		return a, nil
	case "scan":
		return Eval(n.Args[0], env)
	case "filter":
		return evalFilter(n, env)
	case "project":
		return evalProject(n, env)
	case "redim":
		a, err := Eval(n.Args[0], env)
		if err != nil {
			return nil, err
		}
		return Redimension(a, n.Schema)
	case "rechunk":
		a, err := Eval(n.Args[0], env)
		if err != nil {
			return nil, err
		}
		return Rechunk(a, n.Schema)
	case "sort":
		a, err := Eval(n.Args[0], env)
		if err != nil {
			return nil, err
		}
		return Sort(a), nil
	case "between":
		a, err := Eval(n.Args[0], env)
		if err != nil {
			return nil, err
		}
		return Between(a, n.Lo, n.Hi)
	case "apply":
		a, err := Eval(n.Args[0], env)
		if err != nil {
			return nil, err
		}
		return Apply(a, n.AName, *n.AExpr)
	case "merge":
		return evalBinary(n, env, Merge)
	case "cross":
		return evalBinary(n, env, Cross)
	default:
		return nil, fmt.Errorf("afl: unknown operator %q", n.Op)
	}
}

func evalBinary(n *Node, env Env, f func(a, b *array.Array) (*array.Array, error)) (*array.Array, error) {
	if len(n.Args) != 2 {
		return nil, fmt.Errorf("afl: %s takes two operands", n.Op)
	}
	a, err := Eval(n.Args[0], env)
	if err != nil {
		return nil, err
	}
	b, err := Eval(n.Args[1], env)
	if err != nil {
		return nil, err
	}
	return f(a, b)
}

func evalFilter(n *Node, env Env) (*array.Array, error) {
	a, err := Eval(n.Args[0], env)
	if err != nil {
		return nil, err
	}
	return Filter(a, n.Cond)
}

func evalProject(n *Node, env Env) (*array.Array, error) {
	a, err := Eval(n.Args[0], env)
	if err != nil {
		return nil, err
	}
	return Project(a, n.Fields)
}

// Filter returns the cells of a satisfying the condition, same schema.
func Filter(a *array.Array, cond *Condition) (*array.Array, error) {
	di := a.Schema.DimIndex(cond.Attr)
	ai := a.Schema.AttrIndex(cond.Attr)
	if di < 0 && ai < 0 {
		return nil, fmt.Errorf("afl: filter references unknown field %q", cond.Attr)
	}
	out := array.MustNew(a.Schema.Clone())
	var err error
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		var v array.Value
		if di >= 0 {
			v = array.IntValue(coords[di])
		} else {
			v = attrs[ai]
		}
		ok, cmpErr := compare(v, cond.Op, cond.Val)
		if cmpErr != nil {
			err = cmpErr
			return false
		}
		if ok {
			out.MustPut(coords, attrs)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out.SortAll()
	return out, nil
}

func compare(v array.Value, op string, lit array.Value) (bool, error) {
	c := v.Compare(lit)
	switch op {
	case "=", "==":
		return c == 0, nil
	case "!=", "<>":
		return c != 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	}
	return false, fmt.Errorf("afl: unknown comparison %q", op)
}

// Project keeps only the named attributes (dimensions are untouched —
// arrays are vertically partitioned, so this models reading a column
// subset).
func Project(a *array.Array, fields []string) (*array.Array, error) {
	s := &array.Schema{Name: a.Schema.Name, Dims: append([]array.Dimension(nil), a.Schema.Dims...)}
	var idx []int
	for _, f := range fields {
		i := a.Schema.AttrIndex(f)
		if i < 0 {
			return nil, fmt.Errorf("afl: project references unknown attribute %q", f)
		}
		s.Attrs = append(s.Attrs, a.Schema.Attrs[i])
		idx = append(idx, i)
	}
	out := array.MustNew(s)
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		sub := make([]array.Value, len(idx))
		for i, ai := range idx {
			sub[i] = attrs[ai]
		}
		out.MustPut(coords, sub)
		return true
	})
	out.SortAll()
	return out, nil
}

// Redimension reorganizes a into the target schema, converting attributes
// to dimensions (or vice versa) as the target requires, then sorts every
// chunk — the Table-1 redim operator, cost n + n·log(n/c).
func Redimension(a *array.Array, target *array.Schema) (*array.Array, error) {
	out, mapCell, err := reorganizer(a, target)
	if err != nil {
		return nil, err
	}
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		mapCell(coords, attrs)
		return true
	})
	out.SortAll()
	return out, nil
}

// Rechunk reassigns cells to the target schema's chunk grid without
// sorting them — the Table-1 rechunk operator, cost n, unordered output.
func Rechunk(a *array.Array, target *array.Schema) (*array.Array, error) {
	out, mapCell, err := reorganizer(a, target)
	if err != nil {
		return nil, err
	}
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		mapCell(coords, attrs)
		return true
	})
	return out, nil
}

// reorganizer prepares the target array and a cell-mapping closure shared
// by Redimension and Rechunk. Every target field must name a dimension or
// attribute of the source.
func reorganizer(a *array.Array, target *array.Schema) (*array.Array, func([]int64, []array.Value), error) {
	t := target.Clone()
	if t.Name == "" {
		t.Name = a.Schema.Name
	}
	out, err := array.New(t)
	if err != nil {
		return nil, nil, err
	}
	type src struct {
		isDim bool
		idx   int
	}
	resolve := func(name string) (src, error) {
		if i := a.Schema.DimIndex(name); i >= 0 {
			return src{isDim: true, idx: i}, nil
		}
		if i := a.Schema.AttrIndex(name); i >= 0 {
			return src{isDim: false, idx: i}, nil
		}
		return src{}, fmt.Errorf("afl: target field %q not in source %s", name, a.Schema.Name)
	}
	dimSrc := make([]src, len(t.Dims))
	for i, d := range t.Dims {
		s, err := resolve(d.Name)
		if err != nil {
			return nil, nil, err
		}
		dimSrc[i] = s
	}
	attrSrc := make([]src, len(t.Attrs))
	for i, at := range t.Attrs {
		s, err := resolve(at.Name)
		if err != nil {
			return nil, nil, err
		}
		attrSrc[i] = s
	}
	mapCell := func(coords []int64, attrs []array.Value) {
		nc := make([]int64, len(dimSrc))
		for i, s := range dimSrc {
			var v int64
			if s.isDim {
				v = coords[s.idx]
			} else {
				v = attrs[s.idx].AsInt()
			}
			nc[i], _ = t.Dims[i].Clamp(v, false) // lenient: never errors
		}
		na := make([]array.Value, len(attrSrc))
		for i, s := range attrSrc {
			if s.isDim {
				na[i] = array.IntValue(coords[s.idx])
			} else {
				na[i] = attrs[s.idx]
			}
		}
		out.MustPut(nc, na)
	}
	return out, mapCell, nil
}

// Sort returns a copy of a with every chunk in C-order — the Table-1 sort
// operator, cost n·log(n/c).
func Sort(a *array.Array) *array.Array {
	out := a.Clone()
	out.SortAll()
	return out
}

// Merge computes the D:D merge join of two same-shape arrays: cells
// occupied in both at the same coordinates, with the attributes of both
// sides (right-side name collisions get a "_2" suffix). This is the
// classic array merge join of Section 2.3.1.
func Merge(a, b *array.Array) (*array.Array, error) {
	if !a.Schema.SameShape(b.Schema) {
		return nil, fmt.Errorf("afl: merge requires same-shape arrays (%s vs %s)", a.Schema, b.Schema)
	}
	s := &array.Schema{
		Name: a.Schema.Name + "_" + b.Schema.Name,
		Dims: append([]array.Dimension(nil), a.Schema.Dims...),
	}
	s.Attrs = append(s.Attrs, a.Schema.Attrs...)
	for _, at := range b.Schema.Attrs {
		name := at.Name
		if s.HasAttr(name) || s.HasDim(name) {
			name += "_2"
		}
		s.Attrs = append(s.Attrs, array.Attribute{Name: name, Type: at.Type})
	}
	out, err := array.New(s)
	if err != nil {
		return nil, err
	}
	// Iterate chunk positions present in both; merge sorted cells.
	for _, key := range a.SortedKeys() {
		ca := a.Chunks[key]
		cb, ok := b.Chunks[key]
		if !ok {
			continue
		}
		ca.Sort()
		cb.Sort()
		left := chunkTuples(ca)
		right := chunkTuples(cb)
		_, err := join.MergeJoin(left, right, func(l, r *join.Tuple) {
			attrs := append(append([]array.Value(nil), l.Attrs...), r.Attrs...)
			out.MustPut(l.Coords, attrs)
		})
		if err != nil {
			return nil, err
		}
	}
	out.SortAll()
	return out, nil
}

// Cross computes the Cartesian-product join of Section 2.2's default
// cross(a, b) plan: output dimensionality is the concatenation of the
// inputs' dimensions and every pair of occupied cells produces an output
// cell. Exhaustive — O(n_a·n_b).
func Cross(a, b *array.Array) (*array.Array, error) {
	s := &array.Schema{Name: a.Schema.Name + "_x_" + b.Schema.Name}
	s.Dims = append(s.Dims, a.Schema.Dims...)
	for _, d := range b.Schema.Dims {
		if s.HasDim(d.Name) {
			d.Name += "_2"
		}
		s.Dims = append(s.Dims, d)
	}
	s.Attrs = append(s.Attrs, a.Schema.Attrs...)
	for _, at := range b.Schema.Attrs {
		name := at.Name
		if s.HasAttr(name) || s.HasDim(name) {
			name += "_2"
		}
		s.Attrs = append(s.Attrs, array.Attribute{Name: name, Type: at.Type})
	}
	out, err := array.New(s)
	if err != nil {
		return nil, err
	}
	// Full materialization is legitimate here: the inner side is iterated
	// |a| times, so a streaming re-scan per outer cell would re-decode b
	// O(n_a) times for no memory win — the operator is exhaustive
	// O(n_a·n_b) by definition and only used on small reference inputs.
	bCells := b.Cells()
	a.Scan(func(ac []int64, aa []array.Value) bool {
		for _, bc := range bCells {
			coords := append(append([]int64(nil), ac...), bc.Coords...)
			attrs := append(append([]array.Value(nil), aa...), bc.Attrs...)
			out.MustPut(coords, attrs)
		}
		return true
	})
	out.SortAll()
	return out, nil
}

// chunkTuples converts a chunk's cells into merge-join tuples keyed by
// their coordinates. Materialization here is bounded by one chunk — the
// unit the merge join sorts — not a whole array, so it needs no
// streaming treatment.
func chunkTuples(ch *array.Chunk) []join.Tuple {
	ts := make([]join.Tuple, ch.Len())
	for row := 0; row < ch.Len(); row++ {
		coords, attrs := ch.Cell(row)
		key := make([]array.Value, len(coords))
		for i, c := range coords {
			key[i] = array.IntValue(c)
		}
		ts[row] = join.Tuple{Key: key, Coords: coords, Attrs: attrs}
	}
	sort.SliceStable(ts, func(i, j int) bool { return join.KeyCompare(&ts[i], &ts[j]) < 0 })
	return ts
}
