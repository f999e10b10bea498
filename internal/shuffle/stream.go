// Streaming slice mapping: the pull-based, bounded-memory counterpart
// of MapSideN. Instead of materializing every mapped cell as a
// join.Tuple (three slice headers plus per-cell allocations), the
// streaming path appends cells into fixed-capacity columnar batches —
// one bounded run of batches per (unit, node) slice. Comparison reads a
// unit's runs in place (RunSet.Run) with the columnar join kernels.
// The pooled TupleReaders decode the same runs back into tuples that
// are bit-identical to what MapSideN produces for the same side (same
// unit function, same key extraction, same carry projection), which the
// differential tests in stream_test.go and the pipeline equivalence
// suite pin; they are references, which only tests and the benchmark's
// compare replay read.
package shuffle

import (
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/par"
)

// DefaultBatchRows is the batch row capacity used when StreamConfig
// leaves BatchRows zero.
const DefaultBatchRows = 1024

// StreamConfig tunes streaming slice mapping.
type StreamConfig struct {
	// BatchRows is the row capacity of each columnar batch (0 uses
	// DefaultBatchRows).
	BatchRows int
	// Intern is the query-shared string dictionary; created on demand
	// when nil.
	Intern *batch.Intern
	// Budget, when non-nil, is charged for every sealed batch and
	// credited on ReleaseUnit — per-query memory accounting with
	// counted or strict overflow (see batch.Budget). Typically shared
	// by both sides of the join.
	Budget *batch.Budget
}

// sideLayout fixes the columnar batch layout of one mapped side: key
// columns first (one per predicate term, typed by the term's source),
// then carried attribute columns.
type sideLayout struct {
	ndims   int
	keyRefs []join.Ref
	carry   []int
	types   []array.ScalarType // len(keyRefs) key cols + len(carry) attr cols
}

// RunSet holds the streamed slice map of one side: for every
// (unit, node) pair, a run of bounded columnar batches plus its cell
// count. It is the streaming counterpart of SliceSet — Sizes, UnitTotal
// and TotalCells report the same statistics, and Reader replays a
// unit's tuples in exactly Assemble's order (destination's local cells
// first, then remote slices in node order).
type RunSet struct {
	Spec  *UnitSpec
	Nodes int

	lay       sideLayout
	batchRows int
	intern    *batch.Intern
	budget    *batch.Budget

	runs   [][]*batch.Batch // [u*Nodes+node]
	counts []int64          // [u*Nodes+node]
}

// Count returns the cells of unit u mapped on the given node.
func (rs *RunSet) Count(u, node int) int64 { return rs.counts[u*rs.Nodes+node] }

// Sizes returns the slice statistics s_{i,j}, exactly as SliceSet.Sizes
// reports them for the materializing path.
func (rs *RunSet) Sizes() [][]int64 {
	out := make([][]int64, rs.Spec.NumUnits)
	for u := range out {
		out[u] = append([]int64(nil), rs.counts[u*rs.Nodes:(u+1)*rs.Nodes]...)
	}
	return out
}

// UnitTotal returns S_i, the total cells of unit u across all nodes.
func (rs *RunSet) UnitTotal(u int) int64 {
	var n int64
	for _, c := range rs.counts[u*rs.Nodes : (u+1)*rs.Nodes] {
		n += c
	}
	return n
}

// Run appends unit u's batches, as assembled at node dest, to buf and
// returns it: the destination's local run first, then the other nodes'
// runs in node order, Assemble's order. The batches stay the RunSet's;
// they are valid until ReleaseUnit(u).
func (rs *RunSet) Run(u, dest int, buf []*batch.Batch) []*batch.Batch {
	buf = append(buf, rs.runs[u*rs.Nodes+dest]...)
	for node := 0; node < rs.Nodes; node++ {
		if node != dest {
			buf = append(buf, rs.runs[u*rs.Nodes+node]...)
		}
	}
	return buf
}

// getBatch returns a cleared batch shaped for this side's layout. The
// process-wide batch pool replaced the per-RunSet free list, which
// discarded grown storage at query end: the shared pool recycles
// batches across queries (batch.Reshape revives retained column
// storage).
func (rs *RunSet) getBatch() *batch.Batch {
	return batch.Get(rs.lay.ndims, rs.lay.types, rs.batchRows)
}

// ReleaseUnit recycles unit u's batches and credits their bytes back to
// the budget. Called once a unit's comparison has fully consumed it;
// idempotent.
func (rs *RunSet) ReleaseUnit(u int) {
	var bytes int64
	freed := false
	for node := 0; node < rs.Nodes; node++ {
		idx := u*rs.Nodes + node
		for _, bt := range rs.runs[idx] {
			bytes += bt.Bytes()
			bt.Reset()
			batch.Put(bt)
			freed = true
		}
		rs.runs[idx] = nil
	}
	if freed {
		rs.budget.Release(bytes)
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

// MapSideStream is the streaming MapSideN: every node maps its local
// cells into per-(unit, node) batch runs instead of materialized tuple
// slices. Per-node chunk order, unit assignment, key extraction, and
// carry projection are identical to MapSideN, so a RunSet decodes to
// exactly the SliceSet the materializing path would have built. Sealed
// batches are charged to cfg.Budget as they fill; in strict budget mode
// the map fails with an error wrapping batch.ErrBudget when the charge
// crosses the limit.
func MapSideStream(d *cluster.Distributed, k int, spec *UnitSpec, m *SideMapper, workers int, cfg StreamConfig) (*RunSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind == ChunkUnits && len(m.DimRefs) != len(spec.JoinDims) {
		return nil, fmt.Errorf("shuffle: mapper has %d dim refs, spec has %d join dims",
			len(m.DimRefs), len(spec.JoinDims))
	}

	carry := m.Carry
	if m.CarryAll {
		carry = make([]int, len(d.Array.Schema.Attrs))
		for i := range carry {
			carry[i] = i
		}
	}
	lay := sideLayout{
		ndims:   len(d.Array.Schema.Dims),
		keyRefs: m.KeyRefs,
		carry:   carry,
	}
	lay.types = make([]array.ScalarType, 0, len(m.KeyRefs)+len(carry))
	for _, ref := range m.KeyRefs {
		if ref.IsDim {
			lay.types = append(lay.types, array.TypeInt64)
		} else {
			lay.types = append(lay.types, d.Array.Schema.Attrs[ref.Index].Type)
		}
	}
	for _, ai := range carry {
		lay.types = append(lay.types, d.Array.Schema.Attrs[ai].Type)
	}

	rs := &RunSet{
		Spec:      spec,
		Nodes:     k,
		lay:       lay,
		batchRows: cfg.BatchRows,
		intern:    cfg.Intern,
		budget:    cfg.Budget,
	}
	if rs.batchRows <= 0 {
		rs.batchRows = DefaultBatchRows
	}
	if rs.intern == nil {
		rs.intern = batch.NewIntern()
	}
	rs.runs = make([][]*batch.Batch, spec.NumUnits*k)
	rs.counts = make([]int64, spec.NumUnits*k)
	tails := make([]*batch.Batch, spec.NumUnits*k)

	nkey := len(m.KeyRefs)
	errs := make([]error, k)
	par.ForEach(k, workers, func(node int) {
		// The node's chunks in C-order, cached on the sealed array: the
		// order a sequential walk visits them, preserved per node under
		// parallelism.
		for _, key := range d.LocalChunks(node) {
			ch := d.Array.Chunks[key]
			for row := 0; row < ch.Len(); row++ {
				u := unitOfRow(spec, m, ch, row)
				idx := u*k + node
				bt := tails[idx]
				if bt == nil {
					bt = rs.getBatch()
					tails[idx] = bt
				}
				for dd := range bt.Coords {
					bt.Coords[dd] = append(bt.Coords[dd], ch.Coords[dd][row])
				}
				for c, ref := range m.KeyRefs {
					bt.Cols[c].Append(refValue(ch, ref, row), rs.intern)
				}
				for a, src := range carry {
					bt.Cols[nkey+a].Append(ch.Cols[src].Value(row), rs.intern)
				}
				rs.counts[idx]++
				if bt.Full() {
					if err := rs.budget.Acquire(bt.Bytes()); err != nil {
						errs[node] = err
						return
					}
					rs.runs[idx] = append(rs.runs[idx], bt)
					tails[idx] = nil
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Seal the partially filled tails (each run's final batch).
	for idx, bt := range tails {
		if bt == nil || bt.Len() == 0 {
			continue
		}
		if err := rs.budget.Acquire(bt.Bytes()); err != nil {
			return nil, err
		}
		rs.runs[idx] = append(rs.runs[idx], bt)
	}
	return rs, nil
}

// TupleReader replays one join unit's tuples for one side as a
// join.TupleStream, decoding batches into reader-owned scratch arenas,
// bounded by the batch size for windowed consumption (Next) or the unit
// size for build-side materialization. Readers are pooled: Close
// returns the reader (arenas and all) for reuse. It is the reference
// the columnar compare path is checked against, not the engine's path.
type TupleReader struct {
	rs    *RunSet
	total int
	run   []*batch.Batch // the unit's batches, RunSet.Run's order
	next  int            // the next batch of run to decode

	ts     []join.Tuple
	keys   []array.Value
	coords []int64
	attrs  []array.Value
}

// readerPool recycles TupleReaders (arenas and all) across units,
// queries, and RunSets — process-wide for the same reason as the batch
// pool: a per-RunSet free list dropped the grown arenas at query end.
var readerPool = par.NewPool[*TupleReader](512)

// Reader returns a pooled reader over unit u as assembled at node dest.
func (rs *RunSet) Reader(u, dest int) *TupleReader {
	r, ok := readerPool.Get()
	if !ok {
		r = &TupleReader{}
	}
	r.rs = rs
	r.total = int(rs.UnitTotal(u))
	r.run, r.next = rs.Run(u, dest, r.run[:0]), 0
	return r
}

// Close recycles the reader. The RunSet and batch references are
// dropped so a pooled reader never pins a finished query's slice map.
func (r *TupleReader) Close() {
	r.rs = nil
	clear(r.run)
	readerPool.Put(r)
}

// Len implements join.TupleStream: the unit side's total tuple count.
func (r *TupleReader) Len() int { return r.total }

// advance returns the unit's next batch in Assemble order, or nil.
func (r *TupleReader) advance() *batch.Batch {
	if r.next == len(r.run) {
		return nil
	}
	r.next++
	return r.run[r.next-1]
}

// grow ensures the scratch arenas can hold rows decoded tuples.
func (r *TupleReader) grow(rows int) {
	lay := &r.rs.lay
	if cap(r.ts) < rows {
		r.ts = make([]join.Tuple, rows)
	}
	if n := rows * len(lay.keyRefs); cap(r.keys) < n {
		r.keys = make([]array.Value, n)
	}
	if n := rows * lay.ndims; cap(r.coords) < n {
		r.coords = make([]int64, n)
	}
	if n := rows * len(lay.carry); cap(r.attrs) < n {
		r.attrs = make([]array.Value, n)
	}
}

// decode fills ts[:bt.Len()] from bt, carving each tuple's Key, Coords,
// and Attrs out of the given arenas starting at tuple offset off.
func (r *TupleReader) decode(bt *batch.Batch, ts []join.Tuple, off int) {
	lay := &r.rs.lay
	in := r.rs.intern
	nkey, nd, nattr := len(lay.keyRefs), lay.ndims, len(lay.carry)
	n := bt.Len()
	for i := 0; i < n; i++ {
		o := off + i
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
		ts[i] = join.Tuple{Key: key, Coords: coords, Attrs: attrs}
	}
}

// Next implements join.TupleStream: one decoded batch per window, valid
// until the next call.
func (r *TupleReader) Next() ([]join.Tuple, bool) {
	bt := r.advance()
	if bt == nil {
		return nil, false
	}
	r.grow(bt.Len())
	ts := r.ts[:bt.Len()]
	r.decode(bt, ts, 0)
	return ts, true
}

// Materialize implements join.TupleStream: the whole side decoded into
// reader-owned arenas, valid until Close.
func (r *TupleReader) Materialize() []join.Tuple {
	r.grow(r.total)
	ts := r.ts[:r.total]
	off := 0
	for bt := r.advance(); bt != nil; bt = r.advance() {
		r.decode(bt, ts[off:off+bt.Len()], off)
		off += bt.Len()
	}
	return ts[:off]
}
