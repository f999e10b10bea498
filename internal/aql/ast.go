package aql

import (
	"fmt"
	"strconv"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
)

// Expr is a projection expression node.
type Expr interface {
	String() string
	// columns appends every column reference in the expression.
	columns(dst []ColRef) []ColRef
}

// ColRef names a source column (dimension or attribute), optionally
// qualified with its array name.
type ColRef struct {
	Array string
	Name  string
}

// String implements Expr.
func (c ColRef) String() string {
	if c.Array == "" {
		return c.Name
	}
	return c.Array + "." + c.Name
}

func (c ColRef) columns(dst []ColRef) []ColRef { return append(dst, c) }

// NumLit is a numeric literal.
type NumLit struct {
	Val   float64
	IsInt bool
}

// String implements Expr.
func (n NumLit) String() string {
	if n.IsInt {
		return strconv.FormatFloat(n.Val, 'f', -1, 64)
	}
	return floatLit(n.Val)
}

// floatLit renders a float as an AQL number token: positional notation
// with a decimal point, so it lexes as one token and parses back as a
// float.
func floatLit(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

func (n NumLit) columns(dst []ColRef) []ColRef { return dst }

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   byte // + - * /
	L, R Expr
}

// String implements Expr.
func (b BinExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R)
}

func (b BinExpr) columns(dst []ColRef) []ColRef { return b.R.columns(b.L.columns(dst)) }

// NegExpr is unary minus.
type NegExpr struct{ E Expr }

// String implements Expr.
func (n NegExpr) String() string { return "-" + n.E.String() }

func (n NegExpr) columns(dst []ColRef) []ColRef { return n.E.columns(dst) }

// SelectItem is one projection: an expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Name returns the output attribute name of the item: the alias, the bare
// column name, or a positional fallback.
func (s SelectItem) Name(pos int) string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(ColRef); ok {
		return c.Name
	}
	return fmt.Sprintf("expr_%d", pos)
}

// Filter is a non-join WHERE conjunct: column OP literal, applied to its
// source array before the join (selection pushdown).
type Filter struct {
	Col ColRef
	Op  string // = != < <= > >=
	Val array.Value
}

func (f Filter) String() string {
	lit := f.Val.String()
	switch f.Val.Kind {
	case array.TypeString:
		lit = "'" + lit + "'"
	case array.TypeFloat64:
		lit = floatLit(f.Val.F)
	}
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, lit)
}

// Query is a parsed AQL join query. From lists the source arrays; Left
// and Right alias its first two entries for the common two-way case, and
// queries over three or more arrays are executed by the multi-join
// optimizer (see RunMulti).
type Query struct {
	Star    bool
	Select  []SelectItem
	Into    *array.Schema // nil when no INTO clause
	From    []string
	Left    string // From[0]
	Right   string // From[1]
	Pred    join.Predicate
	Filters []Filter
	Raw     string
}

// String reassembles a canonical form of the query, which parses back to
// the same query.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Star {
		b.WriteString("*")
	} else {
		for i, s := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.Expr.String())
			if s.Alias != "" {
				b.WriteString(" AS " + s.Alias)
			}
		}
	}
	if q.Into != nil {
		b.WriteString(" INTO " + q.Into.String())
	}
	fmt.Fprintf(&b, " FROM %s ON %s", strings.Join(q.From, " JOIN "), q.Pred)
	for _, f := range q.Filters {
		b.WriteString(" AND " + f.String())
	}
	return b.String()
}
