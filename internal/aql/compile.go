package aql

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

// Compiled is a query resolved against concrete source schemas, ready to
// hand to the shuffle join executor.
type Compiled struct {
	Out  *array.Schema // destination τ (nil only for SELECT * with no INTO)
	Pred join.Predicate
	// Select is the SELECT list, one expression per destination
	// attribute (see pipeline.Options.Select); nil for SELECT *.
	Select []pipeline.Expr
}

// Compile resolves a parsed query against the source schemas. The
// executor checks the SELECT list's columns and carries the attributes
// it reads (pipeline.LogicalPlan). A default output schema may not name
// two columns alike: a SELECT item named like an output dimension or an
// earlier item fails, naming the item.
func Compile(q *Query, left, right *array.Schema) (*Compiled, error) {
	return compile(q, q.Select, left, right)
}

// compile is Compile with the SELECT list as the query's text wrote it,
// item for item, for its errors: RunMulti's last step compiles a copy
// whose columns name the operands that hold them.
func compile(q *Query, written []SelectItem, left, right *array.Schema) (*Compiled, error) {
	if q.Left != left.Name || q.Right != right.Name {
		return nil, fmt.Errorf("aql: query joins %s and %s, given schemas %s and %s",
			q.Left, q.Right, left.Name, right.Name)
	}
	c := &Compiled{Pred: q.Pred, Out: q.Into}
	if q.Star {
		return c, nil // a nil Out means Equation-3 default
	}
	for _, item := range q.Select {
		c.Select = append(c.Select, item.Expr)
	}
	if q.Into != nil {
		if len(q.Into.Attrs) != len(q.Select) {
			return nil, fmt.Errorf("aql: INTO schema has %d attributes, SELECT list has %d",
				len(q.Into.Attrs), len(q.Select))
		}
		return c, nil
	}
	// No INTO: the paper's default join output keeps the sources'
	// dimension space (Equation 3) with one attribute per SELECT item.
	rp, err := join.ResolvePredicate(left, right, q.Pred)
	if err != nil {
		return nil, err
	}
	def := logical.DefaultOutputSchema(left, right, rp)
	c.Out = &array.Schema{Name: def.Name, Dims: def.Dims}
	for i := range c.Select {
		typ, err := c.Select[i].Type(left, right)
		if err != nil {
			return nil, err
		}
		name := q.Select[i].Name(i)
		if c.Out.HasDim(name) || c.Out.HasAttr(name) {
			return nil, fmt.Errorf("aql: SELECT item %s repeats the output name %s; rename it with AS", exprString(&written[i].Expr), name)
		}
		c.Out.Attrs = append(c.Out.Attrs, array.Attribute{Name: name, Type: typ})
	}
	return c, nil
}

// ExecOptions folds the compiled query into executor options.
func (c *Compiled) ExecOptions(base pipeline.Options) pipeline.Options {
	base.Select = c.Select
	return base
}
