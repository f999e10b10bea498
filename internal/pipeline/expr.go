package pipeline

import (
	"fmt"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
)

// Expr is one output attribute of Options.Select: a source column, a
// numeric literal, or arithmetic on other Exprs. It is evaluated with
// AQL's rules, a whole join unit at a time: int op int is an int
// (wrapping on overflow), any float operand makes a float, '/' is always
// a float and a zero divisor gives NaN, a string column in arithmetic
// is the float it parses to (NaN if none), and a float bound for an int
// attribute truncates. Any other value converts as Column.Append does.
type Expr struct {
	// Op is OpCol, OpLit, OpNeg, or one of '+', '-', '*', '/' (L Op R).
	Op byte
	// Array and Field name the source column of OpCol: a dimension or
	// attribute of that source, or of either source, left first, when
	// Array is empty.
	Array, Field string
	// Lit is OpLit's number, an int64 or a float64 Value.
	Lit array.Value
	// L is the operand of OpNeg and the left operand of arithmetic; R
	// is the right one.
	L, R *Expr
}

// Expr operators besides the arithmetic '+', '-', '*' and '/'.
const (
	OpCol byte = 0   // the source column Array.Field
	OpLit byte = '#' // the literal Lit
	OpNeg byte = '~' // -L
)

// field is a column of the join's sources: dimension or attribute idx
// of the left (side 0) or right (side 1) schema, and its type.
type field struct {
	side  int
	isDim bool
	idx   int
	typ   array.ScalarType
}

// column resolves the OpCol x against the join's sources: a dimension
// or attribute of the source x.Array names, or, when it names none, of
// the left source, else the right.
func (x *Expr) column(srcs [2]*array.Schema) (field, error) {
	for side, s := range srcs {
		if x.Array != "" && x.Array != s.Name {
			continue
		}
		if i := s.DimIndex(x.Field); i >= 0 {
			return field{side: side, isDim: true, idx: i, typ: array.TypeInt64}, nil
		}
		if i := s.AttrIndex(x.Field); i >= 0 {
			return field{side: side, idx: i, typ: s.Attrs[i].Type}, nil
		}
	}
	return field{}, fmt.Errorf("pipeline: select column %s is not a field of %s or %s",
		join.Term{Array: x.Array, Name: x.Field}, srcs[0].Name, srcs[1].Name)
}

// kind types a column or operator node as the AQL evaluator types its
// values, from its operands' kinds (an OpCol's l is its column's type):
// a string column is the float it parses to, negation keeps its
// operand's kind, and arithmetic is int only when both operands are and
// op is not '/'. A literal's kind is its own.
func kind(op byte, l, r array.ScalarType) array.ScalarType {
	switch {
	case op == OpCol && l == array.TypeString:
		return array.TypeFloat64
	case op == OpCol || op == OpNeg:
		return l
	case op != '/' && l == array.TypeInt64 && r == array.TypeInt64:
		return array.TypeInt64
	}
	return array.TypeFloat64
}

// check validates x against the join's sources and returns the kind it
// evaluates to. When carry is not nil, it appends to it, per side and
// once each, the name of every attribute x reads.
func (x *Expr) check(srcs [2]*array.Schema, carry *[2][]string) (array.ScalarType, error) {
	switch x.Op {
	case OpCol:
		f, err := x.column(srcs)
		if err != nil {
			return 0, err
		}
		if carry != nil && !f.isDim && !slices.Contains(carry[f.side], x.Field) {
			carry[f.side] = append(carry[f.side], x.Field)
		}
		return kind(OpCol, f.typ, 0), nil
	case OpLit:
		if x.Lit.Kind == array.TypeString {
			return 0, fmt.Errorf("pipeline: select literal %q is not a number", x.Lit.Str)
		}
		return x.Lit.Kind, nil
	case OpNeg, '+', '-', '*', '/':
	default:
		return 0, fmt.Errorf("pipeline: unknown select operator %q", x.Op)
	}
	if x.L == nil || (x.Op != OpNeg && x.R == nil) {
		return 0, fmt.Errorf("pipeline: select expression %q lacks an operand", x.Op)
	}
	l, err := x.L.check(srcs, carry)
	if err != nil {
		return 0, err
	}
	var r array.ScalarType
	if x.Op != OpNeg {
		if r, err = x.R.check(srcs, carry); err != nil {
			return 0, err
		}
	}
	return kind(x.Op, l, r), nil
}

// Type is the scalar type x yields over the join's sources left and
// right, the type of a default output attribute (aql.Compile): a bare
// column keeps its source's type, and anything else has the kind the
// evaluator gives it.
func (x *Expr) Type(left, right *array.Schema) (array.ScalarType, error) {
	srcs := [2]*array.Schema{left, right}
	if x.Op == OpCol {
		f, err := x.column(srcs)
		return f.typ, err
	}
	return x.check(srcs, nil)
}

// selectCarry checks every Select expression against the join's sources
// and returns, per side, the attributes they read: the columns the
// shuffle carries beyond the destination's and the predicate's.
func selectCarry(left, right *array.Schema, sel []Expr) ([2][]string, error) {
	var carry [2][]string
	for i := range sel {
		if _, err := sel[i].check([2]*array.Schema{left, right}, &carry); err != nil {
			return carry, err
		}
	}
	return carry, nil
}
