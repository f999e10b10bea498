package aql

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

// Run parses, compiles, and executes an AQL join query against the
// cluster's catalog. Literal WHERE conjuncts (column OP literal) push down
// as selections on their source arrays before the join.
func Run(c *cluster.Cluster, query string, opt pipeline.Options) (*pipeline.Report, error) {
	dl, dr, comp, err := twoWay(c, query, func(n int) error {
		return fmt.Errorf("aql: query joins %d arrays; use RunMulti", n)
	})
	if err != nil {
		return nil, err
	}
	return pipeline.RunDistributed(c, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
}

// twoWay is the prologue Run and Explain share: parse the query, look up
// its two operands, push its literal filters down onto them, and compile
// it. A query over more than two arrays fails with tooMany's error.
func twoWay(c *cluster.Cluster, query string, tooMany func(n int) error) (dl, dr *cluster.Distributed, comp *Compiled, err error) {
	q, err := Parse(query)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(q.From) > 2 {
		return nil, nil, nil, tooMany(len(q.From))
	}
	if dl, err = c.Catalog.Lookup(q.Left); err != nil {
		return nil, nil, nil, err
	}
	if dr, err = c.Catalog.Lookup(q.Right); err != nil {
		return nil, nil, nil, err
	}
	if dl, dr, err = pushdownFilters(q, dl, dr); err != nil {
		return nil, nil, nil, err
	}
	if comp, err = Compile(q, dl.Array.Schema, dr.Array.Schema); err != nil {
		return nil, nil, nil, err
	}
	return dl, dr, comp, nil
}

// pushdownFilters applies each literal filter to its source array,
// preserving the surviving chunks' original placement (selection does not
// move data between nodes).
func pushdownFilters(q *Query, dl, dr *cluster.Distributed) (*cluster.Distributed, *cluster.Distributed, error) {
	for _, f := range q.Filters {
		var target **cluster.Distributed
		switch {
		case f.Col.Array == dl.Array.Schema.Name:
			target = &dl
		case f.Col.Array == dr.Array.Schema.Name:
			target = &dr
		case f.Col.Array == "":
			ls, rs := dl.Array.Schema, dr.Array.Schema
			inL := ls.HasDim(f.Col.Name) || ls.HasAttr(f.Col.Name)
			inR := rs.HasDim(f.Col.Name) || rs.HasAttr(f.Col.Name)
			switch {
			case inL && inR:
				return nil, nil, fmt.Errorf("aql: filter column %s is ambiguous", f.Col)
			case inL:
				target = &dl
			case inR:
				target = &dr
			default:
				return nil, nil, fmt.Errorf("aql: filter column %s not found", f.Col)
			}
		default:
			return nil, nil, fmt.Errorf("aql: filter references unknown array %s", f.Col.Array)
		}
		filtered, err := applyFilter(*target, f)
		if err != nil {
			return nil, nil, err
		}
		*target = filtered
	}
	return dl, dr, nil
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

// Explain parses and compiles a two-way query, then returns the
// optimizer's plan enumeration without executing.
func Explain(c *cluster.Cluster, query string, opt pipeline.Options) (*pipeline.Explanation, error) {
	dl, dr, comp, err := twoWay(c, query, func(int) error {
		return fmt.Errorf("aql: EXPLAIN supports two-way joins")
	})
	if err != nil {
		return nil, err
	}
	return pipeline.Explain(c, dl, dr, comp.Pred, comp.Out, comp.ExecOptions(opt))
}
