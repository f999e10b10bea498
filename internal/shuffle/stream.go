// Streaming slice mapping: the columnar counterpart of MapSide.
// Instead of materializing every mapped cell as a join.Tuple (three
// slice headers plus per-cell allocations), the slice map is a counting
// sort of each side's cells into one columnar store, split where the
// paper splits it: slice mapping only counts (CountSlices), and data
// alignment, once the physical plan has placed every unit, scatters the
// cells (Place) so each unit's side is one range of the store, in
// Assemble's order for its destination. A unit whose side is one whole
// chunk is not copied but borrowed: its side is a read-only view of
// the sealed chunk's own columns, which the query's catalog snapshot
// keeps alive, charged to the budget as a copy would be. Comparison
// reads either in place (RunSet.Run) with the columnar join kernels. The pooled
// TupleReaders decode a unit's slices back into tuples that are
// bit-identical to what MapSide produces for the same side (same unit
// function, same key extraction, same carry projection), for any
// destination, which the differential tests in stream_test.go and the
// pipeline equivalence suite pin; they are references, which only tests
// and the benchmark's compare replay read.
package shuffle

import (
	"fmt"
	"math"
	"slices"
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
	// is taken and credited unit by unit on ReleaseUnit, with one
	// credit event per side when its last unit is released — per-query
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

// RunSet holds the streamed slice map of one side: CountSlices counts
// every (unit, node) slice, and Place lays each unit out as one range of
// one store (Run). It is the streaming counterpart of SliceSet — Sizes,
// UnitTotal and Count report the same statistics, and Reader presents a
// unit in exactly Assemble's order for any destination.
type RunSet struct {
	Spec  *UnitSpec
	Nodes int

	d      *cluster.Distributed
	lay    sideLayout
	intern *batch.Intern
	budget *batch.Budget

	cnt   []int   // [node*NumUnits+u]: the cells of unit u on node
	end   []int   // like cnt: Place's write cursors, then each slice's end row in Run(u)
	lo    []int   // [u]: unit u's first row, then the side's rows
	first []int   // [node]: node's first row in units
	units []int32 // the unit of every local row, node by node, until Place

	store    *batch.Batch // the copied units' rows
	views    *views       // the borrowed units' stores; nil if none
	released []bool       // [u]: ReleaseUnit has credited the unit
	live     atomic.Int64
}

// views is Place's scratch for a side with borrowed units. heads[u] is
// borrowed unit u's store: a header over the sealed chunk that holds
// the unit's whole side, whose value columns are cols[u*nc:(u+1)*nc].
// at[u] is unit u's first row in its Run's store: 0 for a borrowed unit,
// and for a copied one its row in the RunSet's store, which holds only
// the copied units (a side without views has unit u at lo[u]). Views are
// pooled, so a warm query allocates none; borrowWhole writes every at[u].
type views struct {
	heads []batch.Batch
	cols  []batch.Col
	at    []int
}

// viewsPool recycles views across queries, bounded as the store pool
// is, with a unit counted as a row.
var viewsPool = batch.NewRowPool(func(v *views) int { return cap(v.heads) })

// getViews returns cleared views for nu units of nc value columns.
func getViews(nu, nc int) *views {
	v, ok := viewsPool.Get()
	if !ok {
		v = new(views)
	}
	v.heads = slices.Grow(v.heads[:0], nu)[:nu]
	v.cols = slices.Grow(v.cols[:0], nu*nc)[:nu*nc]
	v.at = slices.Grow(v.at[:0], nu)[:nu]
	return v
}

// put clears the headers, which reference the chunks, and pools the
// views.
func (v *views) put() {
	clear(v.heads)
	clear(v.cols)
	viewsPool.Put(v)
}

// borrowed reports whether unit u's store is a view (Place).
func (rs *RunSet) borrowed(u int) bool {
	return rs.views != nil && rs.views.heads[u].Coords != nil
}

// borrow makes unit u's store a read-only view of the chunk: the
// chunk's coordinate columns, a dimension key column aliasing its
// coordinate column, and every other value column aliasing the chunk's
// attribute column. The layout has no string column.
func (rs *RunSet) borrow(u int, ch *array.Chunk) {
	nc := len(rs.lay.cols)
	if rs.views == nil {
		rs.views = getViews(rs.Spec.NumUnits, nc)
	}
	cols := rs.views.cols[u*nc : (u+1)*nc : (u+1)*nc]
	for c, ref := range rs.lay.cols {
		cols[c].Type = rs.lay.types[c]
		switch {
		case ref.IsDim:
			cols[c].Ints = ch.Coords[ref.Index]
		case cols[c].Type == array.TypeInt64:
			cols[c].Ints = ch.Cols[ref.Index].Ints
		default:
			cols[c].Fs = ch.Cols[ref.Index].Fs
		}
	}
	rs.views.heads[u] = batch.Batch{Coords: ch.Coords, Cols: cols}
}

// Count returns the cells of unit u mapped on the given node.
func (rs *RunSet) Count(u, node int) int64 {
	return int64(rs.cnt[node*rs.Spec.NumUnits+u])
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
	return int64(rs.lo[u+1] - rs.lo[u])
}

// Run returns unit u's side as Place laid it out: the rows of its first
// node's slice, then the other nodes' in node order. The store stays
// the RunSet's, or, for a borrowed unit, is a view of a sealed chunk;
// either is read-only and valid until ReleaseUnit(u).
func (rs *RunSet) Run(u int) batch.Run {
	switch {
	case rs.views == nil:
		return batch.Run{Store: rs.store, Lo: rs.lo[u], Hi: rs.lo[u+1]}
	case rs.borrowed(u):
		return batch.Run{Store: &rs.views.heads[u], Hi: int(rs.UnitTotal(u))}
	}
	at := rs.views.at[u]
	return batch.Run{Store: rs.store, Lo: at, Hi: at + int(rs.UnitTotal(u))}
}

// ReleaseUnit credits unit u's bytes back to the budget, borrowed or
// copied alike. Called once a unit's comparison has fully consumed it;
// a second call for the same unit does nothing. When the side's last
// unit is released, the side's one credit event, of all its bytes, is
// recorded, and its store and its views go back to their pools.
func (rs *RunSet) ReleaseUnit(u int) {
	if rs.released[u] {
		return
	}
	rs.released[u] = true
	rs.budget.Return(rs.UnitTotal(u) * rs.lay.rowBytes())
	if rs.live.Add(-1) == 0 {
		rs.budget.RecordCredit(int64(rs.lo[rs.Spec.NumUnits]) * rs.lay.rowBytes())
		batch.Put(rs.store)
		rs.store = nil
		if rs.views != nil {
			rs.views.put()
			rs.views = nil
		}
	}
}

// Release returns what the side still holds when its query stops
// early: it credits every unit not yet released, which records the
// side's credit event and sends a placed store and its views back to
// their pools, and, before Place, returns the count pass's per-row
// scratch. Call it once no worker reads the side; a nil RunSet
// holds nothing.
func (rs *RunSet) Release() {
	if rs == nil {
		return
	}
	for u := range rs.released {
		rs.ReleaseUnit(u)
	}
	if rs.units != nil {
		unitsPool.Put(rs.units)
		rs.units = nil
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
		} else if c := &ch.Cols[ref.Index]; c.Type == array.TypeInt64 {
			v = c.Ints[row]
		} else {
			v = c.Value(row).AsInt()
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

// chunkUnit reports whether every row of the chunk at key falls in one
// chunk unit, and which, from the chunk's box alone: the units of its
// low and high corner on each join dimension, clamped as unitOfRow
// clamps. Only chunk units whose DimRefs are all dimensions have one.
func chunkUnit(spec *UnitSpec, m *SideMapper, s *array.Schema, key array.ChunkKey) (int, bool) {
	if spec.Kind != ChunkUnits {
		return 0, false
	}
	var buf [8]int64 // stack room for up to eight dimensions
	idx := s.KeyIndices(key, buf[:0])
	unit := 0
	for i, d := range spec.JoinDims {
		ref := m.DimRefs[i]
		if !ref.IsDim {
			return 0, false
		}
		sd := s.Dims[ref.Index]
		lo := sd.Start + idx[ref.Index]*sd.ChunkInterval
		hi := lo + min(sd.ChunkInterval-1, sd.End-lo)
		lo, hi = min(max(lo, d.Start), d.End), min(max(hi, d.Start), d.End)
		c := d.ChunkIndex(lo)
		if d.ChunkIndex(hi) != c {
			return 0, false
		}
		unit = unit*int(d.ChunkCount()) + int(c)
	}
	return unit, true
}

// MapSideStream is the streaming MapSide: CountSlices, then Place
// with node 0 as every unit's first node, which is node order. Per-node
// chunk order, unit assignment, key extraction, and carry projection
// are identical to MapSide, so a RunSet decodes to exactly the
// SliceSet the materializing path would have built.
func MapSideStream(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper, workers int, cfg StreamConfig) (*RunSet, error) {
	rs, err := CountSlices(d, k, spec, m, workers, cfg)
	if err != nil {
		return nil, err
	}
	rs.Place(nil, workers)
	return rs, nil
}

// CountSlices is the count pass of the slice map (§3.3), in parallel
// across nodes: it computes each local row's unit once (a chunk of one
// unit u, chunkUnit, at once, as -1-u in its first row), keeps it for
// Place, counts every (unit, node) slice, and charges the side's bytes
// to cfg.Budget in one Acquire. It takes no store, so a side that does
// not fit a strict budget fails (batch.ErrBudget) first.
func CountSlices(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper, workers int, cfg StreamConfig) (*RunSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind == ChunkUnits && len(m.DimRefs) != len(spec.JoinDims) {
		return nil, fmt.Errorf("shuffle: mapper has %d dim refs, spec has %d join dims",
			len(m.DimRefs), len(spec.JoinDims))
	}

	schema := d.Array.Schema
	carry := m.Carry
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

	nu := spec.NumUnits
	// cnt, end and lo share one allocation.
	counts := make([]int, 2*k*nu+nu+1)
	rs := &RunSet{
		Spec:     spec,
		Nodes:    k,
		d:        d,
		lay:      lay,
		intern:   cfg.Intern,
		budget:   cfg.Budget,
		cnt:      counts[:k*nu],
		end:      counts[k*nu : 2*k*nu],
		lo:       counts[2*k*nu:],
		first:    make([]int, k+1),
		released: make([]bool, nu),
	}
	if rs.intern == nil {
		rs.intern = batch.NewIntern()
	}
	rs.live.Store(int64(nu))

	for node := 0; node < k; node++ {
		rs.first[node+1] = rs.first[node]
		for _, key := range d.LocalChunks(node) {
			rs.first[node+1] += d.Array.Chunks[key].Len()
		}
	}
	if n := rs.first[k]; n > math.MaxInt32 {
		return nil, fmt.Errorf("shuffle: %d cells on one side, at most %d", n, math.MaxInt32)
	}
	units, _ := unitsPool.Get()
	if cap(units) < rs.first[k] {
		units = make([]int32, rs.first[k])
	}
	units = units[:rs.first[k]]
	// Counters are node-major, so workers do not share them.
	par.ForEach(k, workers, func(node, _ int) {
		i, cnt := rs.first[node], rs.cnt[node*nu:(node+1)*nu]
		for _, key := range d.LocalChunks(node) {
			ch := d.Array.Chunks[key]
			if u, ok := chunkUnit(spec, m, schema, key); ok && ch.Len() > 0 {
				units[i] = int32(-1 - u)
				cnt[u] += ch.Len()
				i += ch.Len()
				continue
			}
			for row := 0; row < ch.Len(); row++ {
				u := unitOfRow(spec, m, ch, row)
				units[i] = int32(u)
				cnt[u]++
				i++
			}
		}
	})
	for u := 0; u < nu; u++ {
		rs.lo[u+1] = rs.lo[u]
		for node := 0; node < k; node++ {
			rs.lo[u+1] += rs.cnt[node*nu+u]
		}
	}
	if err := rs.budget.Acquire(int64(rs.lo[nu]) * lay.rowBytes()); err != nil {
		unitsPool.Put(units)
		return nil, err
	}
	rs.units = units
	return rs, nil
}

// Place is the data alignment of the side's cells (§3.4): it lays
// every unit u out in the order Assemble reads it at node home[u] (nil:
// node 0), that node's slice first, then the others ascending. A unit
// whose whole side is one chunk the count pass took whole is borrowed,
// when the layout has no string column: its store is a view of that
// chunk's own columns, charged to the budget like a copy but not
// copied. The other units share one store taken from the pool, sized
// to their rows, into which each chunk is scattered (or, when it is
// one unit, copied) column by column in parallel across nodes. Nodes
// write disjoint rows, so the layout is the same at every worker count.
// Call it once.
func (rs *RunSet) Place(home []int, workers int) {
	k, nu := rs.Nodes, rs.Spec.NumUnits
	units := rs.units
	at, copied := rs.borrowWhole()
	for u := 0; u < nu; u++ {
		h := 0
		if home != nil {
			h = home[u]
		}
		rs.end[h*nu+u] = at[u]
		row := at[u] + rs.cnt[h*nu+u]
		for node := 0; node < k; node++ {
			if node != h {
				rs.end[node*nu+u] = row
				row += rs.cnt[node*nu+u]
			}
		}
	}
	rs.store = batch.Get(rs.lay.ndims, rs.lay.types, copied)
	par.ForEach(k, workers, func(node, _ int) {
		i, pos := rs.first[node], rs.end[node*nu:(node+1)*nu]
		for _, key := range rs.d.LocalChunks(node) {
			ch := rs.d.Array.Chunks[key]
			rows, to := units[i:i+ch.Len()], 0
			i += ch.Len()
			if len(rows) > 0 && rows[0] < 0 {
				u := -1 - int(rows[0])
				rows, to = nil, pos[u]
				pos[u] += ch.Len()
				if rs.borrowed(u) {
					continue
				}
			}
			for r, u := range rows {
				rows[r] = int32(pos[u])
				pos[u]++
			}
			for dd, src := range ch.Coords {
				scatter(rs.store.Coords[dd], src, rows, to)
			}
			for c, ref := range rs.lay.cols {
				if ref.IsDim {
					scatter(rs.store.Cols[c].Ints, ch.Coords[ref.Index], rows, to)
				} else {
					rs.scatterCol(&rs.store.Cols[c], &ch.Cols[ref.Index], rows, to)
				}
			}
		}
	})
	rs.units = nil
	unitsPool.Put(units)
}

// borrowWhole borrows every unit whose side is one chunk the count
// pass took whole (one node, one chunk, the unit's total equal to the
// chunk's Len), unless the layout has a string column. It returns each
// unit's first row in its Run's store, and the rows the store needs
// for the units it copies.
func (rs *RunSet) borrowWhole() (at []int, copied int) {
	nu := rs.Spec.NumUnits
	if !slices.Contains(rs.lay.types, array.TypeString) {
		for node := 0; node < rs.Nodes; node++ {
			i := rs.first[node]
			for _, key := range rs.d.LocalChunks(node) {
				ch := rs.d.Array.Chunks[key]
				if n := ch.Len(); n > 0 && rs.units[i] < 0 {
					if u := -1 - int(rs.units[i]); rs.UnitTotal(u) == int64(n) {
						rs.borrow(u, ch)
					}
				}
				i += ch.Len()
			}
		}
	}
	if rs.views == nil {
		return rs.lo, rs.lo[nu]
	}
	at = rs.views.at
	for u := 0; u < nu; u++ {
		if rs.borrowed(u) {
			at[u] = 0
			continue
		}
		at[u] = copied
		copied += int(rs.UnitTotal(u))
	}
	return at, copied
}

// unitsPool recycles the count pass's per-row scratch across queries,
// bounded as the store pool is.
var unitsPool = batch.NewRowPool(func(s []int32) int { return cap(s) })

// scatter copies src[r] to dst[rows[r]] for every r (rows nil: to dst[to:]).
func scatter[T any](dst, src []T, rows []int32, to int) {
	if rows == nil {
		copy(dst[to:], src)
		return
	}
	for r, at := range rows {
		dst[at] = src[r]
	}
}

// scatterCol is scatter from a chunk column into a store column of the
// same type, interning strings row by row.
func (rs *RunSet) scatterCol(dst *batch.Col, src *array.Column, rows []int32, to int) {
	switch src.Type {
	case array.TypeInt64:
		scatter(dst.Ints, src.Ints, rows, to)
	case array.TypeFloat64:
		scatter(dst.Fs, src.Fs, rows, to)
	case array.TypeString:
		for r, s := range src.Strs {
			at := to + r
			if rows != nil {
				at = int(rows[r])
			}
			dst.Codes[at] = rs.intern.ID(s)
		}
	}
}

// TupleReader replays one join unit's tuples for one side as a
// join.TupleStream in Assemble's order, decoding the whole side into
// reader-owned arenas (Materialize). Readers are pooled (Close). It is
// the reference the columnar compare path is checked against, not the
// engine's path.
type TupleReader struct {
	rs      *RunSet
	u, dest int

	ts     []join.Tuple
	keys   []array.Value
	coords []int64
	attrs  []array.Value
}

// readerPool recycles TupleReaders (arenas and all) across units,
// queries, and RunSets — process-wide, because a per-RunSet free list
// dropped the grown arenas at query end.
var readerPool = par.NewPool[*TupleReader](512)

// Reader returns a pooled reader over unit u as assembled at node dest,
// wherever Place put its slices.
func (rs *RunSet) Reader(u, dest int) *TupleReader {
	r, ok := readerPool.Get()
	if !ok {
		r = &TupleReader{}
	}
	r.rs, r.u, r.dest = rs, u, dest
	return r
}

// Close recycles the reader. The RunSet reference is dropped so a
// pooled reader never pins a finished query's slice map.
func (r *TupleReader) Close() {
	r.rs = nil
	readerPool.Put(r)
}

// sliceAt returns the rows, in the unit's Run store, of the i-th of
// its slices in Assemble's order.
func (r *TupleReader) sliceAt(i int) (lo, hi int) {
	node := i
	switch {
	case i == 0:
		node = r.dest
	case i <= r.dest:
		node = i - 1
	}
	j := node*r.rs.Spec.NumUnits + r.u
	return r.rs.end[j] - r.rs.cnt[j], r.rs.end[j]
}

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

// decode fills r.ts[off:off+hi-lo] from the store's rows [lo, hi),
// carving each tuple's Key, Coords, and Attrs out of the arenas at the
// same offsets.
func (r *TupleReader) decode(lo, hi, off int) {
	lay := &r.rs.lay
	in := r.rs.intern
	bt := r.rs.Run(r.u).Store
	nkey, nd, nattr := lay.nkey, lay.ndims, len(lay.cols)-lay.nkey
	for i := lo; i < hi; i++ {
		o := off + i - lo
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
		r.ts[o] = join.Tuple{Key: key, Coords: coords, Attrs: attrs}
	}
}

// Materialize implements join.TupleStream: the whole side decoded into
// reader-owned arenas, valid until Close.
func (r *TupleReader) Materialize() []join.Tuple {
	r.grow(int(r.rs.UnitTotal(r.u)))
	off := 0
	for i := 0; i < r.rs.Nodes; i++ {
		lo, hi := r.sliceAt(i)
		r.decode(lo, hi, off)
		off += hi - lo
	}
	return r.ts[:off]
}
