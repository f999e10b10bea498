package aql

import (
	"fmt"
	"strings"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/pipeline"
)

// MultiResult is the outcome of a multi-way join: the per-step shuffle
// join reports in execution order and the final output array.
type MultiResult struct {
	Steps []*pipeline.Report
	Order []string // human-readable join order, e.g. "B ⋈ C", "_join1 ⋈ A"
	// Costs is each step's estimated cost, the pairCost that chose its
	// pair: input cells plus estimated output cells.
	Costs  []float64
	Output *array.Array
	// Aggregate phase durations across steps (steps run one after
	// another, as a query pipeline would).
	PlanSeconds, AlignSeconds, CompareSeconds, TotalSeconds float64
	Matches                                                 int64
}

// MultiPlan describes the greedy optimizer's chosen join order without
// executing: each step names the pair joined and its estimated cost
// (inputs plus estimated output cells).
type MultiPlan struct {
	Steps []MultiPlanStep
}

// MultiPlanStep is one planned pairwise join and the estimated cost that
// chose it (MultiResult.Costs).
type MultiPlanStep struct {
	Left, Right   string
	EstimatedCost float64
}

// ExplainMulti previews the greedy join order for a multi-way query. It
// runs the executor loop itself, so the previewed order is exactly the
// one RunMulti takes; intermediates are query-local, so the catalog is
// untouched.
func ExplainMulti(c *cluster.Cluster, query string, opt pipeline.Options) (*MultiPlan, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if len(q.From) < 3 {
		return nil, fmt.Errorf("aql: ExplainMulti needs three or more arrays")
	}
	res, err := runMultiParsed(c, q, opt)
	if err != nil {
		return nil, err
	}
	plan := &MultiPlan{}
	for i, order := range res.Order {
		parts := strings.SplitN(order, " ⋈ ", 2)
		plan.Steps = append(plan.Steps, MultiPlanStep{
			Left:          parts[0],
			Right:         parts[1],
			EstimatedCost: res.Costs[i],
		})
	}
	return plan, nil
}

// RunMulti executes a join over three or more arrays, choosing the join
// order greedily by estimated intermediate size — the multi-join ordering
// the paper lists as future work (Section 8). At each step the pair of
// remaining relations connected by a predicate with the smallest estimated
// output (plus input sizes) is joined with the two-phase shuffle join; the
// intermediate is dealt round-robin over the cluster and the process
// repeats. Intermediates live only in the query: RunMulti reads the
// catalog and never writes it.
//
// The SELECT list must be * or bare column names (projection applies to
// the final intermediate); INTO is not supported for multi-way queries.
func RunMulti(c *cluster.Cluster, query string, opt pipeline.Options) (*MultiResult, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return runMultiParsed(c, q, opt)
}

func runMultiParsed(c *cluster.Cluster, q *Query, opt pipeline.Options) (*MultiResult, error) {
	if len(q.From) < 3 {
		return nil, fmt.Errorf("aql: RunMulti needs three or more arrays; use Run for two-way joins")
	}
	if q.Into != nil {
		return nil, fmt.Errorf("aql: INTO is not supported for multi-way joins")
	}
	for _, item := range q.Select {
		if _, ok := item.Expr.(ColRef); !ok {
			return nil, fmt.Errorf("aql: multi-way SELECT supports * or bare columns, not %s", item.Expr)
		}
	}

	// live maps a display name to its distributed array.
	live := make(map[string]*cluster.Distributed, len(q.From))
	for _, name := range q.From {
		d, err := c.Catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		if _, dup := live[name]; dup {
			return nil, fmt.Errorf("aql: array %s appears twice in FROM (self joins need aliases, which are unsupported)", name)
		}
		live[name] = d
	}
	// Selection pushdown: literal filters apply before any join.
	for _, f := range q.Filters {
		owner, err := ownerOf(live, join.Term{Array: f.Col.Array, Name: f.Col.Name})
		if err != nil {
			return nil, err
		}
		filtered, err := applyFilter(live[owner], f)
		if err != nil {
			return nil, err
		}
		live[owner] = filtered
	}

	// Pending equalities, each tracked with its current owning arrays.
	var pending []multiEq
	for _, pair := range q.Pred {
		l, r := pair.Left, pair.Right
		var err error
		if l.Array, err = ownerOf(live, l); err != nil {
			return nil, err
		}
		if r.Array, err = ownerOf(live, r); err != nil {
			return nil, err
		}
		if l.Array == r.Array {
			return nil, fmt.Errorf("aql: predicate %s = %s references a single array", l, r)
		}
		pending = append(pending, multiEq{l, r})
	}

	res := &MultiResult{}
	tmpID := 0
	for len(live) > 1 {
		// Candidate pairs: arrays connected by at least one pending
		// equality.
		type cand struct {
			a, b string
			cost float64
		}
		best := cand{cost: -1}
		for _, e := range pending {
			a, b := e.l.Array, e.r.Array
			da, db := live[a], live[b]
			if da == nil || db == nil {
				continue
			}
			cost, err := pairCost(c, da, db, predsBetween(pending, a, b))
			if err != nil {
				return nil, err
			}
			if best.cost < 0 || cost < best.cost {
				best = cand{a: a, b: b, cost: cost}
			}
		}
		if best.cost < 0 {
			return nil, fmt.Errorf("aql: remaining arrays %v are not connected by any predicate (cross products unsupported)", keysOf(live))
		}

		da, db := live[best.a], live[best.b]
		pred := predsBetween(pending, best.a, best.b)
		stepOpt := opt
		stepOpt.Select = nil // intermediates keep natural schemas
		rep, err := pipeline.RunDistributed(c, da, db, pred, nil, stepOpt)
		if err != nil {
			return nil, fmt.Errorf("aql: joining %s with %s: %w", best.a, best.b, err)
		}
		res.Steps = append(res.Steps, rep)
		res.Order = append(res.Order, fmt.Sprintf("%s ⋈ %s", best.a, best.b))
		res.Costs = append(res.Costs, best.cost)
		res.PlanSeconds += rep.PlanTime
		res.AlignSeconds += rep.AlignTime
		res.CompareSeconds += rep.CompareTime

		// Distribute the intermediate and rewrite bookkeeping.
		tmpID++
		tmpName := fmt.Sprintf("_join%d", tmpID)
		rep.Output.Schema.Name = tmpName
		dt := cluster.Distribute(rep.Output, c.K, cluster.RoundRobin)
		delete(live, best.a)
		delete(live, best.b)
		live[tmpName] = dt

		var rest []multiEq
		for _, e := range pending {
			if (e.l.Array == best.a || e.l.Array == best.b) && (e.r.Array == best.a || e.r.Array == best.b) {
				continue // consumed by this step
			}
			if e.l.Array == best.a || e.l.Array == best.b {
				if err := retarget(&e.l, dt, tmpName); err != nil {
					return nil, err
				}
			}
			if e.r.Array == best.a || e.r.Array == best.b {
				if err := retarget(&e.r, dt, tmpName); err != nil {
					return nil, err
				}
			}
			rest = append(rest, e)
		}
		pending = rest
	}

	for _, d := range live {
		res.Output = d.Array
	}
	if res.Output == nil {
		return nil, fmt.Errorf("aql: multi-join produced no output")
	}
	if !q.Star {
		fields := make([]string, len(q.Select))
		for i, item := range q.Select {
			fields[i] = item.Expr.(ColRef).Name
		}
		projected, err := projectArray(res.Output, fields)
		if err != nil {
			return nil, err
		}
		res.Output = projected
	}
	res.Matches = res.Output.CellCount()
	res.TotalSeconds = res.PlanSeconds + res.AlignSeconds + res.CompareSeconds
	return res, nil
}

// projectArray keeps only the named attributes (dimensions are untouched:
// arrays are vertically partitioned, so this models reading a column
// subset) in a sorted copy: each chunk's coordinates and kept columns,
// copied whole.
func projectArray(a *array.Array, fields []string) (*array.Array, error) {
	s := &array.Schema{Name: a.Schema.Name, Dims: append([]array.Dimension(nil), a.Schema.Dims...)}
	var idx []int
	for _, f := range fields {
		i := a.Schema.AttrIndex(f)
		if i < 0 {
			return nil, fmt.Errorf("aql: project references unknown attribute %q", f)
		}
		s.Attrs = append(s.Attrs, a.Schema.Attrs[i])
		idx = append(idx, i)
	}
	out := array.MustNew(s)
	for key, ch := range a.Chunks {
		if ch.Len() == 0 {
			continue
		}
		kept := &array.Chunk{NDims: ch.NDims, Coords: ch.Coords, Cols: make([]array.Column, len(idx))}
		for i, ai := range idx {
			kept.Cols[i] = ch.Cols[ai]
		}
		out.Chunk(key).AppendColumns(kept, nil)
	}
	out.SortAll()
	return out, nil
}

// keysOf lists a live-map's names for error messages.
func keysOf(m map[string]*cluster.Distributed) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// ownerOf resolves a term's owning array by qualifier or field membership.
func ownerOf(live map[string]*cluster.Distributed, t join.Term) (string, error) {
	if t.Array != "" {
		if _, ok := live[t.Array]; !ok {
			return "", fmt.Errorf("aql: predicate references %s, not in FROM", t.Array)
		}
		return t.Array, nil
	}
	owner := ""
	for name, d := range live {
		s := d.Array.Schema
		if s.HasDim(t.Name) || s.HasAttr(t.Name) {
			if owner != "" {
				return "", fmt.Errorf("aql: unqualified column %s is ambiguous across %s and %s", t.Name, owner, name)
			}
			owner = name
		}
	}
	if owner == "" {
		return "", fmt.Errorf("aql: column %s not found in any FROM array", t.Name)
	}
	return owner, nil
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

// retarget points a term at the intermediate that now owns its field.
func retarget(t *join.Term, dt *cluster.Distributed, tmpName string) error {
	s := dt.Array.Schema
	if !s.HasDim(t.Name) && !s.HasAttr(t.Name) {
		return fmt.Errorf("aql: column %s was projected away by an earlier join step (name collision in intermediate schema)", t.Name)
	}
	t.Array = tmpName
	return nil
}
