package aql

import (
	"fmt"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// Run compiles and executes a parsed two-way AQL join query against the
// cluster's catalog. Literal WHERE conjuncts (column OP literal) push down
// as selections on their source arrays before the join.
func Run(c *cluster.Cluster, q *Query, opt pipeline.Options) (*pipeline.Report, error) {
	dl, dr, comp, err := twoWay(c, q)
	if err != nil {
		return nil, err
	}
	return pipeline.RunDistributed(c, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
}

// twoWay is the prologue Run and Explain share: look up the query's two
// operands, push its literal filters down onto them, and compile it.
func twoWay(c *cluster.Cluster, q *Query) (dl, dr *cluster.Distributed, comp *Compiled, err error) {
	if len(q.From) > 2 {
		return nil, nil, nil, fmt.Errorf("aql: query joins %d arrays, not two; RunMulti takes k-way joins", len(q.From))
	}
	ops, err := operands(c, q)
	if err != nil {
		return nil, nil, nil, err
	}
	dl, dr = ops[0].d, ops[1].d
	if comp, err = Compile(q, dl.Array.Schema, dr.Array.Schema); err != nil {
		return nil, nil, nil, err
	}
	return dl, dr, comp, nil
}

// operand is one FROM array of a query under its FROM name: a catalog
// array, or in a k-way join an intermediate.
type operand struct {
	name string
	d    *cluster.Distributed
}

// operands looks up the query's FROM arrays in FROM order and applies each
// literal filter to the operand that owns its column (ownerOf), keeping
// the surviving chunks' placement: selection does not move data between
// nodes.
func operands(c *cluster.Cluster, q *Query) ([]operand, error) {
	ops := make([]operand, len(q.From))
	for i, name := range q.From {
		d, err := c.Catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		ops[i] = operand{name, d}
	}
	for _, f := range q.Filters {
		i, err := ownerOf(ops, f.Col)
		if err != nil {
			return nil, err
		}
		if ops[i].d, err = applyFilter(ops[i].d, f); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// ownerOf returns the index of the operand a column belongs to: the first
// operand of its qualifier's name, or else the one operand holding a
// dimension or attribute of that name.
func ownerOf(ops []operand, t join.Term) (int, error) {
	if t.Array != "" {
		if i := indexOf(ops, t.Array); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("aql: column %s references %s, not in FROM", t, t.Array)
	}
	owner := -1
	for i, o := range ops {
		if hasColumn(o.d.Array.Schema, t.Name) {
			if owner >= 0 {
				return 0, fmt.Errorf("aql: unqualified column %s is ambiguous across %s and %s", t.Name, ops[owner].name, o.name)
			}
			owner = i
		}
	}
	if owner < 0 {
		return 0, fmt.Errorf("aql: column %s not found in any FROM array", t.Name)
	}
	return owner, nil
}

// indexOf returns the index of the first operand named name, or -1.
func indexOf(ops []operand, name string) int {
	return slices.IndexFunc(ops, func(o operand) bool { return o.name == name })
}

func applyFilter(d *cluster.Distributed, f Filter) (*cluster.Distributed, error) {
	out, err := filterArray(d.Array, f)
	if err != nil {
		return nil, err
	}
	// Selection keeps cells where they were: reuse the placement of every
	// surviving chunk.
	p := make(cluster.Placement, len(out.Chunks))
	for key := range out.Chunks {
		p[key] = d.Placement[key]
	}
	return cluster.DistributeExplicit(out, p), nil
}

// filterArray returns the cells of a satisfying the filter (on a dimension
// or an attribute) in a sorted copy with the same schema: each chunk's
// passing rows, selected in row order and appended column by column.
func filterArray(a *array.Array, f Filter) (*array.Array, error) {
	di := a.Schema.DimIndex(f.Col.Name)
	ai := a.Schema.AttrIndex(f.Col.Name)
	if di < 0 && ai < 0 {
		return nil, fmt.Errorf("aql: filter references unknown field %q", f.Col.Name)
	}
	out := array.MustNew(a.Schema.Clone())
	var rows []int32
	for _, key := range a.SortedKeys() {
		ch := a.Chunks[key]
		rows = rows[:0]
		for row := range ch.Len() {
			var v array.Value
			if di >= 0 {
				v = array.IntValue(ch.Coords[di][row])
			} else {
				v = ch.Cols[ai].Value(row)
			}
			ok, err := compare(v, f.Op, f.Val)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, int32(row))
			}
		}
		if len(rows) > 0 {
			out.Chunk(key).AppendColumns(ch, rows)
		}
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
	return false, fmt.Errorf("aql: unknown comparison %q", op)
}

// Explain compiles a parsed two-way query, then returns the optimizer's
// plan enumeration without executing.
func Explain(c *cluster.Cluster, q *Query, opt pipeline.Options) (*pipeline.Explanation, error) {
	dl, dr, comp, err := twoWay(c, q)
	if err != nil {
		return nil, err
	}
	return pipeline.Explain(c, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
}
