package pipeline

import (
	"errors"
	"fmt"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/shuffle"
)

// PlanSignature returns the cache signature RunDistributed would compute
// for this query, for the cache-invalidation tests. Distinct signatures
// guarantee distinct cache slots; the planners never see the difference
// between a cold miss and an absent cache.
func PlanSignature(c *cluster.Cluster, dl, dr *cluster.Distributed, pred join.Predicate, out *array.Schema, opt Options) plancache.Signature {
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	qc.Opt.normalize()
	carry, _ := selectCarry(dl.Array.Schema, dr.Array.Schema, opt.Select)
	return planSignature(qc, carry)
}

// FirstOutOfRange runs the query's stages up to Compare and returns the
// error text strict bounds must fail Assemble with: the first output
// cell, in node order, then unit assignment order, then emit order, with
// a coordinate outside its dimension, found cell by cell. It returns ""
// when every cell is in range.
func FirstOutOfRange(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (string, error) {
	qc, err := compared(c, leftName, rightName, pred, out, opt)
	if err != nil {
		return "", err
	}
	for _, part := range qc.written() {
		for row := 0; row < part.Len(); row++ {
			coords := part.CoordsAt(row, nil)
			for d, dim := range qc.outArr.Schema.Dims {
				if _, err := dim.Clamp(coords[d], true); err != nil {
					return fmt.Sprintf("pipeline: output cell %v: %v", coords, err), nil
				}
			}
		}
	}
	return "", nil
}

// written returns the chunks Compare wrote the query's output cells
// into, in node order, then unit assignment order, then emit order: a
// row-numbered output's destination chunks in key order, or a
// dimensioned output's parts.
func (qc *QueryContext) written() []*array.Chunk {
	if !qc.proj.rowDim {
		return qc.parts
	}
	var chunks []*array.Chunk
	for _, key := range qc.outArr.SortedKeys() {
		chunks = append(chunks, qc.outArr.Chunks[key])
	}
	return chunks
}

// AppendedOutput runs the query's stages up to Compare, then writes a
// dimensioned output's parts into the destination with
// Array.AppendParts as Assemble does (Compare has written a row-numbered
// output's chunks already), and returns the report so far and the
// destination before Assemble's SortAll.
func AppendedOutput(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (*Report, *array.Array, error) {
	qc, err := compared(c, leftName, rightName, pred, out, opt)
	if err != nil {
		return nil, nil, err
	}
	if _, bad := qc.outArr.AppendParts(qc.parts, opt.Strict, nil); bad != nil {
		return nil, nil, bad.Err
	}
	return qc.Report, qc.outArr, nil
}

// compared runs the query's stages up to Compare.
func compared(c *cluster.Cluster, leftName, rightName string, pred join.Predicate, out *array.Schema, opt Options) (*QueryContext, error) {
	dl, err := c.Catalog.Lookup(leftName)
	if err != nil {
		return nil, err
	}
	dr, err := c.Catalog.Lookup(rightName)
	if err != nil {
		return nil, err
	}
	qc := NewQueryContext(c, dl, dr, pred, out, opt)
	stages := DefaultStages()
	return qc, Execute(qc, stages[:len(stages)-1])
}

// BorrowedUnits returns how many join units' sides, left and right,
// are views of a chunk of their operand rather than runs of a store:
// Runs whose coordinates are the chunk's own. Call it between Align and
// Compare.
func (qc *QueryContext) BorrowedUnits() (left, right int) {
	count := func(rs *shuffle.RunSet, d *cluster.Distributed) int {
		chunks := make(map[*int64]bool)
		for _, ch := range d.Array.Chunks {
			if ch.Len() > 0 {
				chunks[&ch.Coords[0][0]] = true
			}
		}
		n := 0
		for u := 0; u < qc.spec.NumUnits; u++ {
			if run := rs.Run(u); run.Len() > 0 && chunks[&run.Store.Coords[0][run.Lo]] {
				n++
			}
		}
		return n
	}
	return count(qc.rsl, qc.Left), count(qc.rsr, qc.Right)
}

// Ledger is what a query must give back by the time Execute returns,
// on every exit: its budget charges, and the stores it took from the
// pool. OpenLedger takes it before the query runs, and Check holds the
// finished query to it. Run the query once first, so that the pool
// already holds the stores it takes.
type Ledger struct {
	stores []*batch.Batch
}

// OpenLedger records the stores the pool holds now.
func OpenLedger() Ledger { return Ledger{stores: pooledStores()} }

// Check returns an error naming every ledger the finished query qc
// left open: its budget does not read 0, its flight trail's budget
// charges do not equal its credits, or the store pool does not hold
// exactly the stores it held at OpenLedger.
func (l Ledger) Check(qc *QueryContext) error {
	var errs []error
	if used := qc.budget.Used(); used != 0 {
		errs = append(errs, fmt.Errorf("%d bytes still charged to the budget", used))
	}
	var charged, credited int64
	started := false
	for _, e := range flight.Default.Snapshot(0) {
		switch {
		case e.QID != qc.qid:
		case e.Type == flight.EvQueryStart:
			started = true
		case e.Type == flight.EvBudgetCharge:
			charged += e.Args[0]
		case e.Type == flight.EvBudgetCredit:
			credited += e.Args[0]
		}
	}
	if !started || charged != credited {
		errs = append(errs, fmt.Errorf("flight trail (query start found: %v): %d bytes charged, %d credited", started, charged, credited))
	}
	held := make(map[*batch.Batch]int)
	for _, b := range l.stores {
		held[b]++
	}
	after := pooledStores()
	for _, b := range after {
		held[b]--
	}
	for _, n := range held {
		if n != 0 {
			errs = append(errs, fmt.Errorf("the store pool held %d stores before the query and holds %d, not all the same, after", len(l.stores), len(after)))
			break
		}
	}
	return errors.Join(errs...)
}

// pooledStores returns the stores the pool holds, which it still holds
// afterwards, in the same order: it takes them all out, a layout of no
// columns leaving each as it was, and puts them back in reverse. The
// first store Get makes afresh, which has never had a coordinate
// column, marks the pool empty; it is dropped.
func pooledStores() []*batch.Batch {
	var held []*batch.Batch
	for {
		b := batch.Get(0, nil, 0)
		if cap(b.Coords) == 0 {
			break
		}
		held = append(held, b)
	}
	for i := len(held) - 1; i >= 0; i-- {
		batch.Put(held[i])
	}
	return held
}
