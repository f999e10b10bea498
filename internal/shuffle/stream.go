// Streaming slice mapping: the columnar counterpart of MapSideN.
// Instead of materializing every mapped cell as a join.Tuple (three
// slice headers plus per-cell allocations), the slice map is a counting
// sort of each side's cells into one columnar store, laid out unit by
// unit. Comparison reads a unit's side in place (RunSet.Run) with the
// columnar join kernels. The pooled TupleReaders decode the same runs
// back into tuples that are bit-identical to what MapSideN produces for
// the same side (same unit function, same key extraction, same carry
// projection), which the differential tests in stream_test.go and the
// pipeline equivalence suite pin; they are references, which only tests
// and the benchmark's compare replay read.
package shuffle

import (
	"fmt"
	"math"
	"sync/atomic"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/par"
)

// StreamConfig tunes streaming slice mapping.
type StreamConfig struct {
	// Intern is the query-shared string dictionary; created on demand
	// when nil.
	Intern *batch.Intern
	// Budget, when non-nil, is charged for each side's store before it
	// is taken and credited unit by unit on ReleaseUnit — per-query
	// memory accounting with counted or strict overflow (see
	// batch.Budget). Typically shared by both sides of the join.
	Budget *batch.Budget
}

// sideLayout fixes the columnar layout of one mapped side: the
// coordinates, then one column per source in cols — the nkey predicate
// terms in predicate order, then the carried attributes — typed by its
// source.
type sideLayout struct {
	ndims int
	nkey  int
	cols  []join.Ref
	types []array.ScalarType
}

// rowBytes is the accounted memory of one stored cell: a flat 8 bytes
// per coordinate and per value (string codes are charged 8 like every
// other value; the strings themselves are owned by the Intern table).
// This is the quantity Budget tracks.
func (l *sideLayout) rowBytes() int64 { return 8 * int64(l.ndims+len(l.types)) }

// RunSet holds the streamed slice map of one side: one store holding
// every (unit, node) slice, unit by unit and, within a unit, node by
// node. It is the streaming counterpart of SliceSet — Sizes, UnitTotal
// and Count report the same statistics, and Run and Reader present a
// unit in exactly Assemble's order (destination's local cells first,
// then remote slices in node order).
type RunSet struct {
	Spec  *UnitSpec
	Nodes int

	lay    sideLayout
	intern *batch.Intern
	budget *batch.Budget

	store    *batch.Batch
	off      []int  // [u*Nodes+node]: the slice's first row, then the store's rows
	released []bool // [u]: ReleaseUnit has credited the unit
	live     atomic.Int64
}

// Count returns the cells of unit u mapped on the given node.
func (rs *RunSet) Count(u, node int) int64 {
	i := u*rs.Nodes + node
	return int64(rs.off[i+1] - rs.off[i])
}

// Sizes returns the slice statistics s_{i,j}, exactly as SliceSet.Sizes
// reports them for the materializing path.
func (rs *RunSet) Sizes() [][]int64 {
	out := make([][]int64, rs.Spec.NumUnits)
	for u := range out {
		out[u] = make([]int64, rs.Nodes)
		for node := range out[u] {
			out[u][node] = rs.Count(u, node)
		}
	}
	return out
}

// UnitTotal returns S_i, the total cells of unit u across all nodes.
func (rs *RunSet) UnitTotal(u int) int64 {
	return int64(rs.off[(u+1)*rs.Nodes] - rs.off[u*rs.Nodes])
}

// Run returns unit u's side as assembled at node dest, its spans
// appended to buf: the destination's local slice first, then the other
// nodes' slices in node order, Assemble's order. Adjacent slices share
// a span, so a unit assembled at node 0, or held by one node, is one
// span. The store stays the RunSet's; it is valid until ReleaseUnit(u).
func (rs *RunSet) Run(u, dest int, buf []batch.Span) batch.Run {
	r := batch.Run{Store: rs.store, Spans: buf}
	base := u * rs.Nodes
	r.Add(rs.off[base+dest], rs.off[base+dest+1])
	for node := 0; node < rs.Nodes; node++ {
		if node != dest {
			r.Add(rs.off[base+node], rs.off[base+node+1])
		}
	}
	return r
}

// ReleaseUnit credits unit u's bytes back to the budget. Called once a
// unit's comparison has fully consumed it; a second call for the same
// unit does nothing. When the side's last unit is released, its store
// goes back to the pool.
func (rs *RunSet) ReleaseUnit(u int) {
	if rs.released[u] {
		return
	}
	rs.released[u] = true
	if n := rs.UnitTotal(u); n > 0 {
		rs.budget.Release(n * rs.lay.rowBytes())
	}
	if rs.live.Add(-1) == 0 {
		batch.Put(rs.store)
		rs.store = nil
	}
}

// refValue reads the value a predicate term selects from a chunk row,
// without materializing the cell — bit-identical to what join.KeyOf
// sees on the materializing path.
func refValue(ch *array.Chunk, ref join.Ref, row int) array.Value {
	if ref.IsDim {
		return array.IntValue(ch.Coords[ref.Index][row])
	}
	return ch.Cols[ref.Index].Value(row)
}

// unitOfRow is unitOfCell over an in-place chunk row: identical hash
// and clamp arithmetic, no per-cell key materialization.
func unitOfRow(spec *UnitSpec, m *SideMapper, ch *array.Chunk, row int) int {
	if spec.Kind == HashUnits {
		var h uint64 = 1469598103934665603
		for _, ref := range m.KeyRefs {
			h ^= refValue(ch, ref, row).HashKey()
			h *= 1099511628211
		}
		return int(h % uint64(spec.NumUnits))
	}
	unit := 0
	for i, d := range spec.JoinDims {
		ref := m.DimRefs[i]
		var v int64
		if ref.IsDim {
			v = ch.Coords[ref.Index][row]
		} else {
			v = ch.Cols[ref.Index].Value(row).AsInt()
		}
		if v < d.Start {
			v = d.Start
		}
		if v > d.End {
			v = d.End
		}
		unit = unit*int(d.ChunkCount()) + int(d.ChunkIndex(v))
	}
	return unit
}

// MapSideStream is the streaming MapSideN: a counting sort of the
// side's cells into one columnar store, in parallel across nodes. The
// count pass computes each local row's unit once and counts every
// (unit, node) slice; a prefix sum lays the slices out unit by unit,
// node by node, and the side's bytes are charged to cfg.Budget in one
// Acquire before the exactly sized store is taken from the pool; the
// scatter pass copies each chunk into its rows column by column. Nodes
// write disjoint rows, so the layout is the same at every worker
// count. Per-node chunk order, unit assignment, key extraction, and
// carry projection are identical to MapSideN, so a RunSet decodes to
// exactly the SliceSet the materializing path would have built. Under a
// strict budget a side that does not fit fails with an error wrapping
// batch.ErrBudget, and no store is taken.
func MapSideStream(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper, workers int, cfg StreamConfig) (*RunSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind == ChunkUnits && len(m.DimRefs) != len(spec.JoinDims) {
		return nil, fmt.Errorf("shuffle: mapper has %d dim refs, spec has %d join dims",
			len(m.DimRefs), len(spec.JoinDims))
	}

	schema := d.Array.Schema
	carry := m.Carry
	if m.CarryAll {
		carry = make([]int, len(schema.Attrs))
		for i := range carry {
			carry[i] = i
		}
	}
	lay := sideLayout{ndims: len(schema.Dims), nkey: len(m.KeyRefs)}
	lay.cols = append(make([]join.Ref, 0, len(m.KeyRefs)+len(carry)), m.KeyRefs...)
	for _, ai := range carry {
		lay.cols = append(lay.cols, join.Ref{Index: ai})
	}
	lay.types = make([]array.ScalarType, len(lay.cols))
	for c, ref := range lay.cols {
		lay.types[c] = array.TypeInt64
		if !ref.IsDim {
			lay.types[c] = schema.Attrs[ref.Index].Type
		}
	}

	rs := &RunSet{
		Spec:     spec,
		Nodes:    k,
		lay:      lay,
		intern:   cfg.Intern,
		budget:   cfg.Budget,
		released: make([]bool, spec.NumUnits),
	}
	if rs.intern == nil {
		rs.intern = batch.NewIntern()
	}
	rs.live.Store(int64(spec.NumUnits))

	// first[node] is the node's first row in units, which holds the
	// unit of every local row in the count pass and its row in the store
	// in the scatter pass.
	first := make([]int, k+1)
	for node := 0; node < k; node++ {
		first[node+1] = first[node]
		for _, key := range d.LocalChunks(node) {
			first[node+1] += d.Array.Chunks[key].Len()
		}
	}
	if first[k] > math.MaxInt32 {
		return nil, fmt.Errorf("shuffle: %d cells on one side, at most %d", first[k], math.MaxInt32)
	}
	units, _ := unitsPool.Get()
	if cap(units) < first[k] {
		units = make([]int32, first[k])
	}
	units = units[:first[k]]
	// next[node*NumUnits+u] counts, then places, node's rows of unit u:
	// node-major, so workers do not share counters.
	nu := spec.NumUnits
	next := make([]int, k*nu)
	par.ForEach(k, workers, func(node int) {
		i, cnt := first[node], next[node*nu:(node+1)*nu]
		for _, key := range d.LocalChunks(node) {
			ch := d.Array.Chunks[key]
			for row := 0; row < ch.Len(); row++ {
				u := unitOfRow(spec, m, ch, row)
				units[i] = int32(u)
				cnt[u]++
				i++
			}
		}
	})

	rs.off = make([]int, nu*k+1)
	row := 0
	for u := 0; u < nu; u++ {
		for node := 0; node < k; node++ {
			rs.off[u*k+node] = row
			row += next[node*nu+u]
			next[node*nu+u] = rs.off[u*k+node]
		}
	}
	rs.off[nu*k] = row
	if err := rs.budget.Acquire(int64(row) * lay.rowBytes()); err != nil {
		return nil, err
	}
	rs.store = batch.Get(lay.ndims, lay.types, row)

	par.ForEach(k, workers, func(node int) {
		i, pos := first[node], next[node*nu:(node+1)*nu]
		for _, key := range d.LocalChunks(node) {
			ch := d.Array.Chunks[key]
			rows := units[i : i+ch.Len()]
			i += ch.Len()
			for r, u := range rows {
				rows[r] = int32(pos[u])
				pos[u]++
			}
			for dd, src := range ch.Coords {
				scatter(rs.store.Coords[dd], src, rows)
			}
			for c, ref := range rs.lay.cols {
				if ref.IsDim {
					scatter(rs.store.Cols[c].Ints, ch.Coords[ref.Index], rows)
				} else {
					rs.scatterCol(&rs.store.Cols[c], &ch.Cols[ref.Index], rows)
				}
			}
		}
	})
	if cap(units) <= 1<<18 {
		unitsPool.Put(units)
	}
	return rs, nil
}

// unitsPool recycles MapSideStream's per-row scratch across queries,
// with the store pool's bounds: at most 4, of at most 2^18 rows.
var unitsPool = par.NewPool[[]int32](4)

// scatter copies src[r] to dst[rows[r]] for every r.
func scatter[T any](dst, src []T, rows []int32) {
	for r, to := range rows {
		dst[to] = src[r]
	}
}

// scatterCol copies a chunk column into a store column of the same
// type, interning strings.
func (rs *RunSet) scatterCol(dst *batch.Col, src *array.Column, rows []int32) {
	switch src.Type {
	case array.TypeInt64:
		scatter(dst.Ints, src.Ints, rows)
	case array.TypeFloat64:
		scatter(dst.Fs, src.Fs, rows)
	case array.TypeString:
		for r, to := range rows {
			dst.Codes[to] = rs.intern.ID(src.Strs[r])
		}
	}
}

// TupleReader replays one join unit's tuples for one side as a
// join.TupleStream, decoding spans into reader-owned scratch arenas,
// bounded by the span for windowed consumption (Next) or the unit size
// for build-side materialization. Readers are pooled: Close returns the
// reader (arenas and all) for reuse. It is the reference the columnar
// compare path is checked against, not the engine's path.
type TupleReader struct {
	rs   *RunSet
	run  batch.Run // the unit's side, RunSet.Run's order
	next int       // the next span of run to decode

	ts     []join.Tuple
	keys   []array.Value
	coords []int64
	attrs  []array.Value
}

// readerPool recycles TupleReaders (arenas and all) across units,
// queries, and RunSets — process-wide, because a per-RunSet free list
// dropped the grown arenas at query end.
var readerPool = par.NewPool[*TupleReader](512)

// Reader returns a pooled reader over unit u as assembled at node dest.
func (rs *RunSet) Reader(u, dest int) *TupleReader {
	r, ok := readerPool.Get()
	if !ok {
		r = &TupleReader{}
	}
	r.rs = rs
	r.run, r.next = rs.Run(u, dest, r.run.Spans[:0]), 0
	return r
}

// Close recycles the reader. The RunSet and store references are
// dropped so a pooled reader never pins a finished query's slice map.
func (r *TupleReader) Close() {
	r.rs, r.run.Store = nil, nil
	readerPool.Put(r)
}

// Len implements join.TupleStream: the unit side's total tuple count.
func (r *TupleReader) Len() int { return r.run.Len() }

// grow ensures the scratch arenas can hold rows decoded tuples.
func (r *TupleReader) grow(rows int) {
	lay := &r.rs.lay
	if cap(r.ts) < rows {
		r.ts = make([]join.Tuple, rows)
	}
	if n := rows * lay.nkey; cap(r.keys) < n {
		r.keys = make([]array.Value, n)
	}
	if n := rows * lay.ndims; cap(r.coords) < n {
		r.coords = make([]int64, n)
	}
	if n := rows * (len(lay.cols) - lay.nkey); cap(r.attrs) < n {
		r.attrs = make([]array.Value, n)
	}
}

// decode fills ts[:sp.Hi-sp.Lo] from the span's rows, carving each
// tuple's Key, Coords, and Attrs out of the arenas starting at tuple
// offset off.
func (r *TupleReader) decode(sp batch.Span, ts []join.Tuple, off int) {
	lay := &r.rs.lay
	in := r.rs.intern
	bt := r.run.Store
	nkey, nd, nattr := lay.nkey, lay.ndims, len(lay.cols)-lay.nkey
	for i := sp.Lo; i < sp.Hi; i++ {
		o := off + i - sp.Lo
		key := r.keys[o*nkey : (o+1)*nkey : (o+1)*nkey]
		for c := 0; c < nkey; c++ {
			key[c] = bt.Cols[c].Value(i, in)
		}
		coords := r.coords[o*nd : (o+1)*nd : (o+1)*nd]
		for d := 0; d < nd; d++ {
			coords[d] = bt.Coords[d][i]
		}
		var attrs []array.Value
		if nattr > 0 {
			attrs = r.attrs[o*nattr : (o+1)*nattr : (o+1)*nattr]
			for a := 0; a < nattr; a++ {
				attrs[a] = bt.Cols[nkey+a].Value(i, in)
			}
		}
		ts[i-sp.Lo] = join.Tuple{Key: key, Coords: coords, Attrs: attrs}
	}
}

// Next implements join.TupleStream: one decoded span per window, valid
// until the next call.
func (r *TupleReader) Next() ([]join.Tuple, bool) {
	if r.next == len(r.run.Spans) {
		return nil, false
	}
	sp := r.run.Spans[r.next]
	r.next++
	n := sp.Hi - sp.Lo
	r.grow(n)
	ts := r.ts[:n]
	r.decode(sp, ts, 0)
	return ts, true
}

// Materialize implements join.TupleStream: the whole side decoded into
// reader-owned arenas, valid until Close.
func (r *TupleReader) Materialize() []join.Tuple {
	total := r.run.Len()
	r.grow(total)
	ts := r.ts[:total]
	off := 0
	for ; r.next < len(r.run.Spans); r.next++ {
		sp := r.run.Spans[r.next]
		r.decode(sp, ts[off:off+sp.Hi-sp.Lo], off)
		off += sp.Hi - sp.Lo
	}
	return ts[:off]
}
