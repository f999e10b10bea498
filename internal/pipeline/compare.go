package pipeline

import (
	"math"
	"slices"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/par"
)

// unitOut is one join unit's slot, written by the worker that runs the
// unit and then by fold: its matches, range [lo, hi) of its worker's
// arena, its first output row, and its join statistics.
type unitOut struct {
	arena  *join.Matches
	lo, hi int
	at     int
	stats  join.Stats
	err    error
}

// nodeOut is one node's merged comparison products: its output cell
// count, join statistics, and modeled compare seconds.
type nodeOut struct {
	cells int64
	stats join.Stats
	time  float64
	err   error
}

// buildOutput creates the destination array and compiles the output
// projection, from Options.Select when it is set.
func (qc *QueryContext) buildOutput() error {
	outArr, err := newOutputArray(qc.plan.JS)
	if err != nil {
		return err
	}
	proj, err := newProjector(qc.plan.JS, qc.Opt.Select)
	if err != nil {
		return err
	}
	qc.outArr, qc.proj = outArr, proj
	return nil
}

// arenaPool keeps compare workers' match lists, MaxPooledRows in all.
var arenaPool = par.NewSizedPool(64, batch.MaxPooledRows, func(m *join.Matches) int { return cap(m.L) })

// joinUnit joins unit u on its destination node, appending its matches
// to the worker's arena (from arenaPool at its first unit) and keeping
// their range in res, the unit's own slot.
func (qc *QueryContext) joinUnit(u int, res *unitOut, arena **join.Matches) {
	// Per-unit cancellation point: a canceled query skips its remaining
	// units (fold surfaces the context error from the first skipped
	// slot) instead of comparing to completion.
	if err := qc.ctx.Err(); err != nil {
		res.err = err
		return
	}
	if *arena == nil {
		if *arena, _ = arenaPool.Get(); *arena == nil {
			*arena = new(join.Matches)
		}
	}
	res.arena, res.lo = *arena, len((*arena).L)
	nkey := len(qc.plan.JS.Pred.Resolved.Left)
	res.stats, res.err = join.RunColumns(qc.plan.Algo, qc.rsl.Run(u), qc.rsr.Run(u), nkey, qc.intern, res.arena)
	res.hi = len(res.arena.L)
}

// fold merges per-unit slots into per-node outputs in deterministic
// order — node ascending, units in assignment order — accumulating
// modeled seconds in that order, so the merged nodeOut values do not
// depend on which worker ran which unit when. In that order it gives
// each unit its output rows [at, at+n), so a row-numbered output's rows
// are node-major, exactly 0…N−1; Assemble writes a dimensioned output's
// parts in that order too, as does the tests' reference executor,
// which makes their outputs directly comparable. It returns N.
func (qc *QueryContext) fold(results []unitOut) int {
	k := qc.Cluster.K
	qc.nodes = make([]nodeOut, k)
	rows := 0
	for node := 0; node < k; node++ {
		no := &qc.nodes[node]
		for _, u := range qc.nodeUnits[node] {
			res := &results[u]
			if res.err != nil {
				no.err = res.err
				break
			}
			res.at = rows
			rows += res.hi - res.lo
			no.cells += int64(res.hi - res.lo)
			no.stats.Add(res.stats)
			no.time += params.Unit(qc.plan.Algo, qc.rsl.UnitTotal(u), qc.rsr.UnitTotal(u))
		}
		addPostJoinTime(no, qc.plan)
	}
	return rows
}

// writeUnits projects every unit's matches into its output rows, on up
// to Parallelism workers, and releases its sides: into the chunks of a
// row-numbered destination, made here at their final size (a unit
// crossing a chunk boundary is split), or into one part per unit.
func (qc *QueryContext) writeUnits(results []unitOut, rows int) {
	var parts []*array.Chunk
	if qc.proj.rowDim {
		for lo := 0; lo < rows; lo += rowChunk {
			sized(qc.outArr.Chunk(array.ChunkKey(lo/rowChunk)), min(rowChunk, rows-lo))
		}
	} else {
		parts = make([]*array.Chunk, len(qc.units))
	}
	par.ForEach(len(qc.units), qc.Opt.workers(), func(i, _ int) {
		u := qc.units[i]
		res := &results[u]
		if m := (join.Matches{L: res.arena.L[res.lo:res.hi], R: res.arena.R[res.lo:res.hi]}); len(m.L) > 0 {
			s := getUnitScratch()
			s.runs[0], s.runs[1] = qc.rsl.Run(u), qc.rsr.Run(u)
			s.load(qc.proj, qc.intern.Strs())
			if parts != nil {
				parts[i] = qc.proj.part(len(qc.outArr.Schema.Dims), len(m.L))
				s.m = m
				qc.proj.project(s, parts[i], 0)
			} else {
				for at := res.at; len(m.L) > 0; {
					dst, off := qc.outArr.Chunks[array.ChunkKey(at/rowChunk)], at%rowChunk
					n := min(len(m.L), rowChunk-off)
					s.m = join.Matches{L: m.L[:n], R: m.R[:n]}
					qc.proj.project(s, dst, off)
					m, at = join.Matches{L: m.L[n:], R: m.R[n:]}, at+n
				}
			}
			s.release()
		}
		// The unit is fully consumed: return its bytes to the query budget.
		qc.rsl.ReleaseUnit(u)
		qc.rsr.ReleaseUnit(u)
	})
	qc.parts = slices.DeleteFunc(parts, func(p *array.Chunk) bool { return p == nil })
}

// addPostJoinTime models the per-node post-join output handling: sorting
// or redimensioning the node's output cells when the plan calls for it
// (OutSort / OutRedim).
func addPostJoinTime(no *nodeOut, lp *logical.Plan) {
	if lp.Out != logical.OutScan && no.cells > 0 {
		n := float64(no.cells)
		no.time += params.Merge * n * math.Log2(math.Max(n, 2))
		if lp.Out == logical.OutRedim {
			no.time += params.Merge * n
		}
	}
}
