package aql

import (
	"fmt"
	"strconv"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// exprString renders a SELECT expression as AQL text that parses back
// to the same tree: arithmetic parenthesized, floats by floatLit.
func exprString(e *pipeline.Expr) string {
	switch e.Op {
	case pipeline.OpCol:
		return join.Term{Array: e.Array, Name: e.Field}.String()
	case pipeline.OpLit:
		if e.Lit.Kind == array.TypeFloat64 {
			return floatLit(e.Lit.F)
		}
		return e.Lit.String()
	case pipeline.OpNeg:
		return "-" + exprString(e.L)
	}
	return fmt.Sprintf("(%s %c %s)", exprString(e.L), e.Op, exprString(e.R))
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

// SelectItem is one projection: an expression with an optional alias.
type SelectItem struct {
	Expr  pipeline.Expr
	Alias string
}

// Name returns the output attribute name of the item: the alias, the bare
// column name, or a positional fallback.
func (s SelectItem) Name(pos int) string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Expr.Op == pipeline.OpCol {
		return s.Expr.Field
	}
	return fmt.Sprintf("expr_%d", pos)
}

// Filter is a non-join WHERE conjunct: column OP literal, applied to its
// source array before the join (selection pushdown).
type Filter struct {
	Col join.Term
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
			b.WriteString(exprString(&s.Expr))
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
