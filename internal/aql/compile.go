package aql

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

// Compiled is a query lowered against concrete source schemas, ready to
// hand to the shuffle join executor.
type Compiled struct {
	Query *Query
	Out   *array.Schema // destination τ (nil only for SELECT * with no INTO)
	Pred  join.Predicate
	// ExtraCarryLeft/Right name attribute columns referenced by SELECT
	// expressions, per side.
	ExtraCarryLeft, ExtraCarryRight []string
	// Select is the SELECT list lowered for the executor, one expression
	// per destination attribute (see pipeline.Options.Select); nil for
	// SELECT *.
	Select []pipeline.Expr
}

// Compile resolves a parsed query against the source schemas.
func Compile(q *Query, left, right *array.Schema) (*Compiled, error) {
	if q.Left != left.Name || q.Right != right.Name {
		return nil, fmt.Errorf("aql: query joins %s and %s, given schemas %s and %s",
			q.Left, q.Right, left.Name, right.Name)
	}
	c := &Compiled{Query: q, Pred: q.Pred}
	if q.Star {
		c.Out = q.Into // nil means Equation-3 default
		return c, nil
	}

	// Column references in expressions become carry requirements.
	var cols []ColRef
	for _, item := range q.Select {
		cols = item.Expr.columns(cols)
	}
	for _, col := range cols {
		side, err := sideOf(col, left, right)
		if err != nil {
			return nil, err
		}
		s := left
		if side == 1 {
			s = right
		}
		if !s.HasDim(col.Name) && !s.HasAttr(col.Name) {
			return nil, fmt.Errorf("aql: column %s not found in %s", col, s.Name)
		}
		if s.AttrIndex(col.Name) >= 0 {
			if side == 0 {
				c.ExtraCarryLeft = append(c.ExtraCarryLeft, col.Name)
			} else {
				c.ExtraCarryRight = append(c.ExtraCarryRight, col.Name)
			}
		}
	}

	// Destination schema: INTO wins; otherwise derive it — the paper's
	// default join output keeps the sources' dimension space (Equation 3)
	// with one attribute per SELECT item.
	if q.Into != nil {
		c.Out = q.Into
		if len(q.Into.Attrs) != len(q.Select) {
			return nil, fmt.Errorf("aql: INTO schema has %d attributes, SELECT list has %d",
				len(q.Into.Attrs), len(q.Select))
		}
	} else {
		rp, err := join.ResolvePredicate(left, right, q.Pred)
		if err != nil {
			return nil, err
		}
		def := logical.DefaultOutputSchema(left, right, rp)
		out := &array.Schema{Name: def.Name, Dims: def.Dims}
		for i, item := range q.Select {
			out.Attrs = append(out.Attrs, array.Attribute{
				Name: item.Name(i),
				Type: exprType(item.Expr, left, right),
			})
		}
		c.Out = out
	}

	for _, item := range q.Select {
		e, err := lower(item.Expr)
		if err != nil {
			return nil, err
		}
		c.Select = append(c.Select, e)
	}
	return c, nil
}

// ExecOptions folds the compiled query into executor options.
func (c *Compiled) ExecOptions(base pipeline.Options) pipeline.Options {
	base.ExtraCarryLeft = append(base.ExtraCarryLeft, c.ExtraCarryLeft...)
	base.ExtraCarryRight = append(base.ExtraCarryRight, c.ExtraCarryRight...)
	base.Select = c.Select
	return base
}

func sideOf(col ColRef, left, right *array.Schema) (int, error) {
	if col.Array != "" {
		switch col.Array {
		case left.Name:
			return 0, nil
		case right.Name:
			return 1, nil
		default:
			return 0, fmt.Errorf("aql: column %s references unknown array", col)
		}
	}
	inLeft := left.HasDim(col.Name) || left.HasAttr(col.Name)
	inRight := right.HasDim(col.Name) || right.HasAttr(col.Name)
	switch {
	case inLeft:
		return 0, nil
	case inRight:
		return 1, nil
	default:
		return 0, fmt.Errorf("aql: column %s not found in %s or %s", col, left.Name, right.Name)
	}
}

// exprType infers the output scalar type of an expression.
func exprType(e Expr, left, right *array.Schema) array.ScalarType {
	switch x := e.(type) {
	case ColRef:
		for _, s := range []*array.Schema{left, right} {
			if x.Array != "" && x.Array != s.Name {
				continue
			}
			if s.HasDim(x.Name) {
				return array.TypeInt64
			}
			if i := s.AttrIndex(x.Name); i >= 0 {
				return s.Attrs[i].Type
			}
		}
		return array.TypeInt64
	case NumLit:
		if x.IsInt {
			return array.TypeInt64
		}
		return array.TypeFloat64
	case NegExpr:
		return exprType(x.E, left, right)
	case BinExpr:
		if x.Op == '/' {
			return array.TypeFloat64
		}
		lt, rt := exprType(x.L, left, right), exprType(x.R, left, right)
		if lt == array.TypeFloat64 || rt == array.TypeFloat64 {
			return array.TypeFloat64
		}
		return array.TypeInt64
	}
	return array.TypeFloat64
}

// lower translates an expression to the executor's projection spec.
func lower(e Expr) (pipeline.Expr, error) {
	switch x := e.(type) {
	case ColRef:
		return pipeline.Expr{Op: pipeline.OpCol, Array: x.Array, Field: x.Name}, nil
	case NumLit:
		lit := array.FloatValue(x.Val)
		if x.IsInt {
			lit = array.IntValue(int64(x.Val))
		}
		return pipeline.Expr{Op: pipeline.OpLit, Lit: lit}, nil
	case NegExpr:
		l, err := lower(x.E)
		if err != nil {
			return pipeline.Expr{}, err
		}
		return pipeline.Expr{Op: pipeline.OpNeg, L: &l}, nil
	case BinExpr:
		l, err := lower(x.L)
		if err != nil {
			return pipeline.Expr{}, err
		}
		r, err := lower(x.R)
		if err != nil {
			return pipeline.Expr{}, err
		}
		return pipeline.Expr{Op: x.Op, L: &l, R: &r}, nil
	}
	return pipeline.Expr{}, fmt.Errorf("aql: unsupported expression %T", e)
}
