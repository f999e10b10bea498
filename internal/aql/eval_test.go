package aql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// This file keeps the SELECT evaluator the engine ran before projection
// was compiled to pipeline.Options.Select: one closure per expression
// node, called once per match on decoded tuples. It is the oracle the
// compiled projection is checked against.

type evalFunc func(l, r *join.Tuple) array.Value

// accessorFunc resolves a column reference to an extractor over matched
// tuple pairs.
type accessorFunc func(arrayName, field string) (func(l, r *join.Tuple) array.Value, error)

// compileExpr lowers an expression to an evaluator over matched tuples.
func compileExpr(e Expr, acc accessorFunc) (evalFunc, error) {
	switch x := e.(type) {
	case ColRef:
		f, err := acc(x.Array, x.Name)
		if err != nil {
			return nil, err
		}
		return evalFunc(f), nil
	case NumLit:
		var v array.Value
		if x.IsInt {
			v = array.IntValue(int64(x.Val))
		} else {
			v = array.FloatValue(x.Val)
		}
		return func(l, r *join.Tuple) array.Value { return v }, nil
	case NegExpr:
		inner, err := compileExpr(x.E, acc)
		if err != nil {
			return nil, err
		}
		return func(l, r *join.Tuple) array.Value {
			v := inner(l, r)
			if v.Kind == array.TypeInt64 {
				return array.IntValue(-v.Int)
			}
			return array.FloatValue(-v.AsFloat())
		}, nil
	case BinExpr:
		lf, err := compileExpr(x.L, acc)
		if err != nil {
			return nil, err
		}
		rf, err := compileExpr(x.R, acc)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(l, r *join.Tuple) array.Value {
			a, b := lf(l, r), rf(l, r)
			bothInt := a.Kind == array.TypeInt64 && b.Kind == array.TypeInt64
			switch op {
			case '+':
				if bothInt {
					return array.IntValue(a.Int + b.Int)
				}
				return array.FloatValue(a.AsFloat() + b.AsFloat())
			case '-':
				if bothInt {
					return array.IntValue(a.Int - b.Int)
				}
				return array.FloatValue(a.AsFloat() - b.AsFloat())
			case '*':
				if bothInt {
					return array.IntValue(a.Int * b.Int)
				}
				return array.FloatValue(a.AsFloat() * b.AsFloat())
			case '/':
				d := b.AsFloat()
				if d == 0 {
					return array.FloatValue(math.NaN())
				}
				return array.FloatValue(a.AsFloat() / d)
			}
			return array.Value{}
		}, nil
	}
	return nil, fmt.Errorf("aql: unsupported expression %T", e)
}

// tupleAccessor resolves columns over tuples that carry every attribute
// of their source, in schema order: a dimension reads Coords, an
// attribute Attrs, searching both sources, left first, when unqualified.
func tupleAccessor(left, right *array.Schema) accessorFunc {
	return func(arrayName, field string) (func(l, r *join.Tuple) array.Value, error) {
		for side, s := range []*array.Schema{left, right} {
			if arrayName != "" && arrayName != s.Name {
				continue
			}
			pick := func(l, r *join.Tuple) *join.Tuple { return l }
			if side == 1 {
				pick = func(l, r *join.Tuple) *join.Tuple { return r }
			}
			if i := s.DimIndex(field); i >= 0 {
				return func(l, r *join.Tuple) array.Value { return array.IntValue(pick(l, r).Coords[i]) }, nil
			}
			if i := s.AttrIndex(field); i >= 0 {
				return func(l, r *join.Tuple) array.Value { return pick(l, r).Attrs[i] }, nil
			}
		}
		return nil, fmt.Errorf("no field %s.%s", arrayName, field)
	}
}

// evaluatorRows is the oracle's output of a query: for every pair of
// source cells that match on the query's one predicate pair, in no
// particular order, the row of output attribute values the evaluator
// gives, converted into the destination's attribute types as the engine
// converted them before projection was compiled.
func evaluatorRows(t *testing.T, a, b *array.Array, query string) []string {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(q, a.Schema, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	acc := tupleAccessor(a.Schema, b.Schema)
	var evals []evalFunc
	for _, item := range q.Select {
		ev, err := compileExpr(item.Expr, acc)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, ev)
	}
	lk, err := acc(q.Pred[0].Left.Array, q.Pred[0].Left.Name)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := acc(q.Pred[0].Right.Array, q.Pred[0].Right.Name)
	if err != nil {
		t.Fatal(err)
	}
	tuples := func(x *array.Array) []join.Tuple {
		var ts []join.Tuple
		x.Scan(func(coords []int64, attrs []array.Value) bool {
			ts = append(ts, join.Tuple{Coords: slices.Clone(coords), Attrs: slices.Clone(attrs)})
			return true
		})
		return ts
	}
	var rows []string
	lt, rt := tuples(a), tuples(b)
	for i := range lt {
		for j := range rt {
			l, r := &lt[i], &rt[j]
			if !lk(l, r).Equal(rk(l, r)) {
				continue
			}
			vals := make([]array.Value, len(evals))
			for k, ev := range evals {
				v := ev(l, r)
				typ := comp.Out.Attrs[k].Type
				if typ == array.TypeInt64 && v.Kind == array.TypeFloat64 {
					v = array.IntValue(v.AsInt())
				}
				col := array.NewColumn(typ)
				col.Append(v)
				vals[k] = col.Value(0)
			}
			rows = append(rows, rowKey(vals))
		}
	}
	slices.Sort(rows)
	return rows
}

// rowKey renders a row of values exactly: floats by their bits, so NaN
// and -0 are told apart.
func rowKey(vals []array.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.Kind {
		case array.TypeFloat64:
			fmt.Fprintf(&sb, "f%x|", math.Float64bits(v.F))
		case array.TypeInt64:
			fmt.Fprintf(&sb, "i%d|", v.Int)
		default:
			fmt.Fprintf(&sb, "s%q|", v.Str)
		}
	}
	return sb.String()
}

// TestCompiledProjectionMatchesEvaluator runs SELECT lists through the
// engine's compiled projection and checks every output row against the
// evaluator it replaced: dimension and attribute references on each
// side, int and float literals, negation, + - * /, division by zero,
// strings in arithmetic, and values of one type stored into an
// attribute of another.
func TestCompiledProjectionMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := array.MustNew(array.MustParseSchema("A<v:int, f:float, s:string>[i=1,40,10]"))
	b := array.MustNew(array.MustParseSchema("B<w:int, g:float>[j=1,40,10]"))
	strs := []string{"1.5", "x", "-2", "7"}
	fs := []float64{0, -0.5, 2.25, 1e300, -3}
	for i := int64(1); i <= 40; i++ {
		if rng.Intn(4) > 0 {
			a.MustPut([]int64{i}, []array.Value{
				array.IntValue(rng.Int63n(8)), array.FloatValue(fs[rng.Intn(len(fs))]), array.StringValue(strs[rng.Intn(len(strs))]),
			})
		}
		if rng.Intn(4) > 0 {
			b.MustPut([]int64{i}, []array.Value{array.IntValue(rng.Int63n(8) - 1), array.FloatValue(fs[rng.Intn(len(fs))])})
		}
	}
	queries := []string{
		// Every form, into the types the compiler infers.
		`SELECT A.i AS ai, B.j AS bj, A.v AS av, B.g AS bg, A.f AS af, A.s AS sa, 3, 2.5, -A.f, -B.w, -A.s, A.v + B.w, A.f - B.j,
			A.v * 2, B.g * A.i, A.i / B.w, A.v / (B.w - B.w), A.f / 0, A.v + 0.5, A.s * 2, -(A.i - 7)
			FROM A JOIN B ON A.v = B.w`,
		// Floats into int attributes (truncated), ints into float ones,
		// numbers into a string one, on a synthetic row dimension.
		`SELECT A.f * 3.5, A.v + 0.5, B.g, A.v * B.w, A.i, A.v / 4, A.f
			INTO T<x:int, y:int, z:int, p:float, q:float, r:float, u:string>[]
			FROM A JOIN B ON A.v = B.w`,
	}
	c := cluster.MustNew(3)
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)
	for qi, query := range queries {
		want := evaluatorRows(t, a, b, query)
		if len(want) == 0 {
			t.Fatalf("query %d: no matches; fixture broken", qi)
		}
		for _, algo := range []join.Algorithm{join.Hash, join.Merge, join.NestedLoop} {
			rep, err := Run(c, query, pipeline.Options{ForceAlgo: &algo, Parallelism: 2})
			if err != nil {
				t.Fatalf("query %d, %v: %v", qi, algo, err)
			}
			var got []string
			rep.Output.Scan(func(_ []int64, attrs []array.Value) bool {
				got = append(got, rowKey(attrs))
				return true
			})
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("query %d, %v: %d rows differ from the evaluator's %d", qi, algo, len(got), len(want))
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("first difference: got %s, want %s", got[i], want[i])
						break
					}
				}
			}
		}
	}
}
