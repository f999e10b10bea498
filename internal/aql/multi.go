package aql

import (
	"fmt"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

// MultiResult is the outcome of a multi-way join: the per-step shuffle
// join reports in execution order and the output, the last step's.
type MultiResult struct {
	Steps []*pipeline.Report
	// Plan is each step's pair and the estimated cost that chose it, in
	// execution order.
	Plan   []MultiPlanStep
	Output *array.Array
}

// MultiPlanStep is one pairwise join of the greedy order and the
// estimated cost that chose it: pairCost over the step's two inputs.
type MultiPlanStep struct {
	Left, Right   string
	EstimatedCost float64
}

// RunMulti executes a parsed join over three or more arrays, choosing the
// join order greedily by estimated intermediate size — the multi-join
// ordering the paper lists as future work (Section 8). At each step the
// pair of remaining relations connected by a predicate with the smallest
// estimated output (plus input sizes) is joined with the two-phase
// shuffle join; the intermediate is dealt round-robin over the cluster,
// takes the place of the earlier of its inputs in FROM order, and the
// process repeats. Intermediates live only in the query: RunMulti reads
// the catalog and never writes it.
//
// An intermediate holds one column per name: the left input's, or the
// right input's when the left has none; a right predicate column is the
// left column it equals. A query that still needs a right column the
// intermediate lost to a same-named left one fails, naming both.
//
// The last step compiles like a two-way query (Compile), with the
// query's SELECT list and INTO: each SELECT column is followed, like a
// predicate term, to the operand that holds it, and each item keeps the
// output name the query gives it. SELECT * INTO selects INTO's
// attribute names as FROM columns, so they are followed the same way.
// The last step's output, named _join<k-1> unless INTO names it, is the
// query's.
func RunMulti(c *cluster.Cluster, q *Query, opt pipeline.Options) (*MultiResult, error) {
	if len(q.From) < 3 {
		return nil, fmt.Errorf("aql: a k-way join needs three or more arrays; Run and Explain take two-way joins")
	}
	for i, name := range q.From {
		if slices.Contains(q.From[:i], name) {
			return nil, fmt.Errorf("aql: array %s appears twice in FROM (self joins need aliases, which are unsupported)", name)
		}
	}
	live, err := operands(c, q)
	if err != nil {
		return nil, err
	}
	// A copy of the SELECT list whose columns each name the operand
	// holding them, resolved like predicate terms.
	star, written := q.Star, q.Select
	if star && q.Into != nil {
		star, written = false, make([]SelectItem, len(q.Into.Attrs))
		for i, a := range q.Into.Attrs {
			written[i].Expr = pipeline.Expr{Op: pipeline.OpCol, Field: a.Name}
		}
	}
	sel := slices.Clone(written)
	var cols []*pipeline.Expr
	for i := range sel {
		sel[i].Alias = written[i].Name(i)
		cols = copyColumns(&sel[i].Expr, cols)
	}
	for _, x := range cols {
		t := join.Term{Array: x.Array, Name: x.Field}
		j, err := ownerOf(live, t)
		if err != nil {
			return nil, err
		}
		if !hasColumn(live[j].d.Array.Schema, t.Name) {
			return nil, fmt.Errorf("aql: select column %s is not a field of %s", t, live[j].name)
		}
		x.Array = live[j].name
	}

	// Pending equalities, each tracked with its current owning arrays.
	var pending []multiEq
	for _, pair := range q.Pred {
		l, r := pair.Left, pair.Right
		li, err := ownerOf(live, l)
		if err != nil {
			return nil, err
		}
		ri, err := ownerOf(live, r)
		if err != nil {
			return nil, err
		}
		l.Array, r.Array = live[li].name, live[ri].name
		if li == ri {
			return nil, fmt.Errorf("aql: predicate %s = %s references a single array", l, r)
		}
		pending = append(pending, multiEq{l, r})
	}

	// inputs holds each intermediate's inputs, so that from can name the
	// FROM column an intermediate's column holds (for errors).
	type inputPair struct {
		left, right string
		ls          *array.Schema
	}
	inputs := map[string]inputPair{}
	from := func(t join.Term) join.Term {
		for in, ok := inputs[t.Array]; ok; in, ok = inputs[t.Array] {
			t.Array = in.right
			if hasColumn(in.ls, t.Name) {
				t.Array = in.left
			}
		}
		return t
	}

	res := &MultiResult{}
	for {
		// Candidate pairs: arrays connected by at least one pending
		// equality.
		best := MultiPlanStep{EstimatedCost: -1}
		for _, e := range pending {
			a, b := e.l.Array, e.r.Array
			cost, err := pairCost(c, live[indexOf(live, a)].d, live[indexOf(live, b)].d, predsBetween(pending, a, b))
			if err != nil {
				return nil, err
			}
			if best.EstimatedCost < 0 || cost < best.EstimatedCost {
				best = MultiPlanStep{Left: a, Right: b, EstimatedCost: cost}
			}
		}
		if best.EstimatedCost < 0 {
			names := make([]string, len(live))
			for i, o := range live {
				names[i] = o.name
			}
			return nil, fmt.Errorf("aql: remaining arrays %v are not connected by any predicate (cross products unsupported)", names)
		}

		ia, ib := indexOf(live, best.Left), indexOf(live, best.Right)
		last := len(live) == 2
		comp := &Compiled{Pred: predsBetween(pending, best.Left, best.Right)} // natural schema
		if last {
			step := &Query{Star: star, Select: sel, Into: q.Into, From: []string{best.Left, best.Right},
				Left: best.Left, Right: best.Right, Pred: comp.Pred}
			if comp, err = compile(step, written, live[ia].d.Array.Schema, live[ib].d.Array.Schema); err != nil {
				return nil, err
			}
		}
		rep, err := pipeline.RunDistributed(c, live[ia].d, live[ib].d, comp.Pred, comp.Out, comp.ExecOptions(opt))
		if err != nil {
			return nil, fmt.Errorf("aql: joining %s with %s: %w", best.Left, best.Right, err)
		}
		res.Steps = append(res.Steps, rep)
		res.Plan = append(res.Plan, best)
		tmpName := fmt.Sprintf("_join%d", len(res.Steps))
		if !last || q.Into == nil {
			rep.Output.Schema.Name = tmpName
		}
		if last {
			res.Output = rep.Output
			return res, nil
		}

		// Distribute the intermediate and rewrite bookkeeping.
		dt := cluster.Distribute(rep.Output, c.K, cluster.RoundRobin)
		ls := live[ia].d.Array.Schema
		inputs[tmpName] = inputPair{best.Left, best.Right, ls}
		// move points a column of either input at the intermediate's
		// column holding its value.
		move := func(t *join.Term) error {
			if t.Array != best.Left && t.Array != best.Right {
				return nil
			}
			name, ok := stepColumn(*t, best.Right, ls, comp.Pred)
			if !ok {
				return fmt.Errorf("aql: %s is lost when joining %s with %s: the intermediate keeps %s, which has the same name",
					from(*t), best.Left, best.Right, from(join.Term{Array: best.Left, Name: t.Name}))
			}
			*t = join.Term{Array: tmpName, Name: name}
			return nil
		}
		ia, ib = min(ia, ib), max(ia, ib)
		live[ia] = operand{tmpName, dt}
		live = slices.Delete(live, ib, ib+1)

		var rest []multiEq
		for _, e := range pending {
			if (e.l.Array == best.Left || e.l.Array == best.Right) && (e.r.Array == best.Left || e.r.Array == best.Right) {
				continue // consumed by this step
			}
			if err := move(&e.l); err != nil {
				return nil, err
			}
			if err := move(&e.r); err != nil {
				return nil, err
			}
			rest = append(rest, e)
		}
		pending = rest
		for _, x := range cols {
			t := join.Term{Array: x.Array, Name: x.Field}
			if err := move(&t); err != nil {
				return nil, err
			}
			x.Array, x.Field = t.Array, t.Name
		}
	}
}

// copyColumns gives x's operands copies of their own, so that x's tree
// shares no node with the one it was copied from, and appends x's
// column nodes to cols.
func copyColumns(x *pipeline.Expr, cols []*pipeline.Expr) []*pipeline.Expr {
	if x.Op == pipeline.OpCol {
		return append(cols, x)
	}
	for _, op := range []**pipeline.Expr{&x.L, &x.R} {
		if *op != nil {
			c := **op
			*op = &c
			cols = copyColumns(&c, cols)
		}
	}
	return cols
}

// multiEq is one pending equality of a multi-way join, tracked with the
// arrays (or intermediates) currently owning each side.
type multiEq struct {
	l, r join.Term
}

// predsBetween collects the pending equalities joining arrays a and b,
// oriented so left terms reference a.
func predsBetween(pending []multiEq, a, b string) join.Predicate {
	var pred join.Predicate
	for _, e := range pending {
		switch {
		case e.l.Array == a && e.r.Array == b:
			pred = append(pred, join.PredPair{Left: e.l, Right: e.r})
		case e.l.Array == b && e.r.Array == a:
			pred = append(pred, join.PredPair{Left: e.r, Right: e.l})
		}
	}
	return pred
}

// pairCost estimates the cost of joining a candidate pair next: inputs
// plus the estimated output cardinality (the greedy minimum-intermediate
// heuristic).
func pairCost(c *cluster.Cluster, da, db *cluster.Distributed, pred join.Predicate) (float64, error) {
	src, err := logical.ResolveSources(da.Array.Schema, db.Array.Schema, nil, pred)
	if err != nil {
		return 0, err
	}
	nA, nB := da.Array.CellCount(), db.Array.CellCount()
	sel := pipeline.EstimateSelectivity(c, da, db, src)
	return float64(nA) + float64(nB) + sel*float64(nA+nB), nil
}

// stepColumn names the column of a step's intermediate that holds
// column t of one of its inputs, following logical.DefaultOutputSchema:
// every left column keeps its name; a right predicate column is the left
// column it equals; any other right column keeps its name unless the left
// input has a column of that name (ok false: the intermediate lost it).
func stepColumn(t join.Term, right string, left *array.Schema, pred join.Predicate) (name string, ok bool) {
	if t.Array != right {
		return t.Name, true
	}
	for _, p := range pred {
		if p.Right.Name == t.Name {
			return p.Left.Name, true
		}
	}
	return t.Name, !hasColumn(left, t.Name)
}

// hasColumn reports whether s has a dimension or attribute named name.
func hasColumn(s *array.Schema, name string) bool {
	return s.HasDim(name) || s.HasAttr(name)
}
