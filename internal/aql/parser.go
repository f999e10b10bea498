package aql

import (
	"fmt"
	"strconv"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// Parse parses an AQL join query of the supported subset:
//
//	SELECT <* | expr [AS name], ...>
//	[INTO <schema literal>]
//	FROM <array> , <array> | FROM <array> JOIN <array> [ON <equalities>]
//	[WHERE <equalities>] [;]
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("aql: %w", err)
	}
	return q, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectKeyword(kw string) error {
	if !keywordIs(p.cur(), kw) {
		return fmt.Errorf("expected %s at offset %d, found %q", kw, p.cur().pos, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.cur()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("expected %q at offset %d, found %q", sym, t.pos, t.text)
	}
	p.pos++
	return nil
}

func (p *parser) symbolIs(sym string) bool {
	t := p.cur()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.symbolIs("*") {
		p.pos++
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, item)
			if !p.symbolIs(",") {
				break
			}
			p.pos++
		}
	}

	if keywordIs(p.cur(), "INTO") {
		p.pos++
		schema, err := p.parseSchemaLiteral()
		if err != nil {
			return nil, err
		}
		q.Into = schema
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, name)
		if p.symbolIs(",") || keywordIs(p.cur(), "JOIN") {
			p.pos++
			continue
		}
		break
	}
	if len(q.From) < 2 {
		return nil, fmt.Errorf("join query needs at least two arrays in FROM")
	}
	q.Left, q.Right = q.From[0], q.From[1]

	if keywordIs(p.cur(), "ON") || keywordIs(p.cur(), "WHERE") {
		p.pos++
		pred, filters, err := p.parsePredicate(q)
		if err != nil {
			return nil, err
		}
		q.Pred = pred
		q.Filters = filters
	}
	if p.symbolIs(";") {
		p.pos++
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("trailing input at offset %d: %q", p.cur().pos, p.cur().text)
	}
	if len(q.Pred) == 0 {
		return nil, fmt.Errorf("join query needs an equi-join predicate (ON or WHERE clause)")
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: *e}
	if keywordIs(p.cur(), "AS") {
		p.pos++
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

// parseSchemaLiteral consumes a schema literal (NAME<attrs>[dims]) by
// locating its raw extent in the source and delegating to array.ParseSchema.
func (p *parser) parseSchemaLiteral() (*array.Schema, error) {
	start := p.cur().pos
	// The literal ends at the top-level FROM keyword.
	depth := 0
	i := p.pos
	for ; p.toks[i].kind != tokEOF; i++ {
		t := p.toks[i]
		if t.kind == tokSymbol && (t.text == "<" || t.text == "[") {
			depth++
		}
		if t.kind == tokSymbol && (t.text == ">" || t.text == "]") {
			depth--
		}
		if depth == 0 && keywordIs(t, "FROM") {
			break
		}
	}
	if p.toks[i].kind == tokEOF {
		return nil, fmt.Errorf("INTO schema literal not followed by FROM")
	}
	raw := strings.TrimSpace(p.src[start:p.toks[i].pos])
	schema, err := array.ParseSchema(raw)
	if err != nil {
		return nil, err
	}
	p.pos = i
	return schema, nil
}

func (p *parser) parseIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent || isKeyword(t) {
		return "", fmt.Errorf("expected identifier at offset %d, found %q", t.pos, t.text)
	}
	p.pos++
	return t.text, nil
}

// parsePredicate parses the WHERE/ON conjunction. Each conjunct is either
// an equi-join pair (column = column, oriented so the left term references
// q.Left in two-way queries) or a literal filter (column OP literal),
// which pushes down as a selection on its source array.
func (p *parser) parsePredicate(q *Query) (join.Predicate, []Filter, error) {
	var pred join.Predicate
	var filters []Filter
	for {
		if err := p.parseConjunct(q, &pred, &filters); err != nil {
			return nil, nil, err
		}
		if !keywordIs(p.cur(), "AND") {
			break
		}
		p.pos++
	}
	return pred, filters, nil
}

func (p *parser) parseConjunct(q *Query, pred *join.Predicate, filters *[]Filter) error {
	lCol, lLit, err := p.parseOperand()
	if err != nil {
		return err
	}
	op, err := p.parseComparison()
	if err != nil {
		return err
	}
	rCol, rLit, err := p.parseOperand()
	if err != nil {
		return err
	}
	switch lIsCol, rIsCol := lCol.Name != "", rCol.Name != ""; {
	case lIsCol && rIsCol:
		if op != "=" {
			return fmt.Errorf("join predicates must be equalities, got %s %s %s", lCol, op, rCol)
		}
		// Orient: the pair's left term must belong to the left array. A
		// pair the swap would not settle (both terms on one array) stays
		// as written, so reparsing String() keeps every orientation.
		if (lCol.Array == q.Right || rCol.Array == q.Left) && rCol.Array != q.Right && lCol.Array != q.Left {
			lCol, rCol = rCol, lCol
		}
		*pred = append(*pred, join.PredPair{Left: lCol, Right: rCol})
	case lIsCol:
		*filters = append(*filters, Filter{Col: lCol, Op: op, Val: rLit})
	case rIsCol:
		*filters = append(*filters, Filter{Col: rCol, Op: flipComparison(op), Val: lLit})
	default:
		return fmt.Errorf("conjunct compares two literals")
	}
	return nil
}

// parseOperand reads a column reference or a literal: a column has a
// name, and a literal comes back with the zero Term.
func (p *parser) parseOperand() (join.Term, array.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		v, err := p.parseNumber()
		return join.Term{}, v, err
	case t.kind == tokString:
		p.pos++
		return join.Term{}, array.StringValue(t.text), nil
	case t.kind == tokIdent && !isKeyword(t):
		c, err := p.parseColRef()
		return c, array.Value{}, err
	}
	return join.Term{}, array.Value{}, fmt.Errorf("expected column or literal at offset %d, found %q", t.pos, t.text)
}

// parseNumber reads a number token, the one reader of WHERE and SELECT
// literals: with a decimal point a float64, which takes no magnitude
// suffix; otherwise the exact int64 after the suffix is expanded.
func (p *parser) parseNumber() (array.Value, error) {
	t := p.next()
	if strings.Contains(t.text, ".") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return array.Value{}, fmt.Errorf("bad number %q at offset %d", t.text, t.pos)
		}
		return array.FloatValue(f), nil
	}
	n, err := strconv.ParseInt(expandSuffix(t.text), 10, 64)
	if err != nil {
		return array.Value{}, fmt.Errorf("bad number %q at offset %d", t.text, t.pos)
	}
	return array.IntValue(n), nil
}

// parseComparison assembles a comparison operator from symbol tokens.
func (p *parser) parseComparison() (string, error) {
	op := ""
	for p.cur().kind == tokSymbol && strings.ContainsAny(p.cur().text, "<>=!") && len(op) < 2 {
		op += p.next().text
	}
	switch op {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		if op == "<>" {
			op = "!="
		}
		return op, nil
	}
	return "", fmt.Errorf("expected comparison operator at offset %d, found %q", p.cur().pos, op)
}

// flipComparison mirrors an operator when operands swap sides.
func flipComparison(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

func (p *parser) parseColRef() (join.Term, error) {
	name, err := p.parseIdent()
	if err != nil {
		return join.Term{}, err
	}
	if p.symbolIs(".") {
		p.pos++
		field, err := p.parseIdent()
		if err != nil {
			return join.Term{}, err
		}
		return join.Term{Array: name, Name: field}, nil
	}
	return join.Term{Name: name}, nil
}

// Expression grammar: expr := term {(+|-) term}; term := factor {(*|/)
// factor}; factor := number | colref | (expr) | -factor.
func (p *parser) parseExpr() (*pipeline.Expr, error) {
	return p.parseBinary(p.parseTerm, "+", "-")
}

func (p *parser) parseTerm() (*pipeline.Expr, error) {
	return p.parseBinary(p.parseFactor, "*", "/")
}

// parseBinary parses operand {(op1|op2) operand}, left-associative.
func (p *parser) parseBinary(operand func() (*pipeline.Expr, error), op1, op2 string) (*pipeline.Expr, error) {
	e, err := operand()
	if err != nil {
		return nil, err
	}
	for p.symbolIs(op1) || p.symbolIs(op2) {
		op := p.next().text[0]
		r, err := operand()
		if err != nil {
			return nil, err
		}
		e = &pipeline.Expr{Op: op, L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseFactor() (*pipeline.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		lit, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		return &pipeline.Expr{Op: pipeline.OpLit, Lit: lit}, nil
	case t.kind == tokIdent && !isKeyword(t):
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		return &pipeline.Expr{Op: pipeline.OpCol, Array: col.Array, Field: col.Name}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokSymbol && t.text == "-":
		p.pos++
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &pipeline.Expr{Op: pipeline.OpNeg, L: e}, nil
	}
	return nil, fmt.Errorf("unexpected token %q at offset %d", t.text, t.pos)
}

func expandSuffix(s string) string {
	if s == "" {
		return s
	}
	switch s[len(s)-1] {
	case 'K', 'k':
		return s[:len(s)-1] + "000"
	case 'M', 'm':
		return s[:len(s)-1] + "000000"
	case 'G', 'g':
		return s[:len(s)-1] + "000000000"
	}
	return s
}
