package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/shuffle"
)

// ddArray builds name<attr:int>[i=1,64,16, j=1,64,16], merge_skew's
// shape at small scale: chunk c holds 1+200/(c+1) cells at distinct
// positions, and every value is an int, so a D:D join on (i, j) borrows
// every unit's sides.
func ddArray(name, attr string, seed int64) *array.Array {
	a := array.MustNew(array.MustParseSchema(fmt.Sprintf("%s<%s:int>[i=1,64,16, j=1,64,16]", name, attr)))
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 16; c++ {
		for _, p := range rng.Perm(256)[:1+200/(c+1)] {
			a.MustPut([]int64{int64(c/4*16 + p/16 + 1), int64(c%4*16 + p%16 + 1)}, []array.Value{array.IntValue(rng.Int63n(50))})
		}
	}
	a.SortAll()
	return a
}

// ddPred joins two ddArrays on both dimensions.
var ddPred = join.Predicate{
	{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}},
	{Left: join.Term{Name: "j"}, Right: join.Term{Name: "j"}},
}

// probeStage runs f on the query between two stages.
type probeStage struct{ f func(*pipeline.QueryContext) }

func (probeStage) Name() string { return "probe" }

func (s probeStage) Run(qc *pipeline.QueryContext) error {
	s.f(qc)
	return nil
}

// panicCtx is a countdownCtx whose Err panics where it would cancel.
type panicCtx struct{ countdownCtx }

func (c *panicCtx) Err() error {
	if c.countdownCtx.Err() != nil {
		panic("injected compare failure")
	}
	return nil
}

// TestLedgerClosedOnEveryExit: a D:D merge query whose sides are
// borrowed closes every ledger on each of its exits — completion, a
// cancel between Align and Compare, a panic in a compare worker after
// two units, and a strict budget the right side does not fit: its
// budget reads 0, its flight trail credits what it charged, and the
// store pool holds what it held (pipeline.Ledger).
func TestLedgerClosedOnEveryExit(t *testing.T) {
	a, b := ddArray("A", "v", 1), ddArray("B", "w", 2)
	merge := join.Merge
	// Each cell of A is 2 coordinates, 2 keys and a carry, 8 bytes each.
	leftBytes := a.CellCount() * 5 * 8
	for _, tc := range []struct {
		name   string
		par    int
		calls  int64 // the ctx calls let through once armed; -1: never armed
		panics bool
		budget int64
		want   error
	}{
		{"complete/par=1", 1, -1, false, 0, nil},
		{"complete/par=8", 8, -1, false, 0, nil},
		{"cancel-before-compare/par=1", 1, 0, false, 0, context.Canceled},
		{"cancel-before-compare/par=8", 8, 0, false, 0, context.Canceled},
		{"panic-in-compare/par=1", 1, 3, true, 0, nil},
		{"strict-budget/par=1", 1, -1, false, leftBytes, batch.ErrBudget},
		{"strict-budget/par=8", 8, -1, false, leftBytes, batch.ErrBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4, a.Clone(), b.Clone())
			dl, _ := c.Catalog.Lookup("A")
			dr, _ := c.Catalog.Lookup("B")
			opt := pipeline.Options{ForceAlgo: &merge, Parallelism: tc.par}
			// The same query, run to completion first, warms the pools.
			if _, err := pipeline.RunDistributed(c, dl, dr, ddPred, nil, opt); err != nil {
				t.Fatal(err)
			}
			ctx := &panicCtx{countdownCtx{Context: context.Background()}}
			if tc.panics {
				opt.Ctx = ctx
			} else {
				opt.Ctx = &ctx.countdownCtx
			}
			opt.MemoryBudget, opt.Strict = tc.budget, tc.budget > 0
			qc := pipeline.NewQueryContext(c, dl, dr, ddPred, nil, opt)
			var bl, br int
			probe := probeStage{func(qc *pipeline.QueryContext) {
				bl, br = qc.BorrowedUnits()
				if tc.calls >= 0 {
					armStage{&ctx.countdownCtx, tc.calls}.Run(qc)
				}
			}}
			st := pipeline.DefaultStages()
			stages := append(append(append([]pipeline.Stage{}, st[:4]...), probe), st[4:]...)
			ledger := pipeline.OpenLedger()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return pipeline.Execute(qc, stages)
			}()
			switch {
			case tc.panics && (err == nil || err.Error() != "panic: injected compare failure"):
				t.Fatalf("err = %v, want the injected panic", err)
			case !tc.panics && !errors.Is(err, tc.want) && (err != nil || tc.want != nil):
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.budget == 0 && (bl == 0 || br == 0) {
				t.Fatalf("%d left and %d right units borrowed, want both sides' units", bl, br)
			}
			if err := ledger.Check(qc); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLongQueryKeepsItsStart: a D:D merge query of more join units than
// the flight ring has slots for half of (72 × 72 one-cell chunks a side,
// 5,184 units) still finds its query-start in flight.Default when it
// finishes or is canceled between Align and Compare, and Ledger.Check
// passes: a side records one budget-credit event, not one per unit.
func TestLongQueryKeepsItsStart(t *testing.T) {
	const n = 72
	grid := func(name, attr string) *array.Array {
		a := array.MustNew(array.MustParseSchema(fmt.Sprintf("%s<%s:int>[i=1,%d,1, j=1,%d,1]", name, attr, n, n)))
		for i := int64(1); i <= n; i++ {
			for j := int64(1); j <= n; j++ {
				a.MustPut([]int64{i, j}, []array.Value{array.IntValue(i * j % 7)})
			}
		}
		return a
	}
	a, b := grid("A", "v"), grid("B", "w")
	merge := join.Merge
	for _, calls := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("armed=%d", calls), func(t *testing.T) {
			c := newCluster(t, 4, a.Clone(), b.Clone())
			dl, _ := c.Catalog.Lookup("A")
			dr, _ := c.Catalog.Lookup("B")
			ctx := &countdownCtx{Context: context.Background()}
			opt := pipeline.Options{ForceAlgo: &merge, Parallelism: 2}
			// The same query, run to completion first, warms the pools.
			if _, err := pipeline.RunDistributed(c, dl, dr, ddPred, nil, opt); err != nil {
				t.Fatal(err)
			}
			opt.Ctx = ctx
			qc := pipeline.NewQueryContext(c, dl, dr, ddPred, nil, opt)
			var bl, br int
			probe := probeStage{func(qc *pipeline.QueryContext) {
				bl, br = qc.BorrowedUnits()
				if calls >= 0 {
					armStage{ctx, calls}.Run(qc)
				}
			}}
			st := pipeline.DefaultStages()
			stages := append(append(append([]pipeline.Stage{}, st[:4]...), probe), st[4:]...)
			ledger := pipeline.OpenLedger()
			err := pipeline.Execute(qc, stages)
			want := error(nil)
			if calls >= 0 {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if bl < 5000 || br < 5000 {
				t.Fatalf("%d left and %d right units borrowed, want every one of %d", bl, br, n*n)
			}
			if err := ledger.Check(qc); err != nil {
				t.Error(err)
			}
		})
	}
}

// chunkColumns deep-copies every chunk's coordinate and attribute
// columns, by chunk key.
func chunkColumns(a *array.Array) map[array.ChunkKey]*array.Chunk {
	out := make(map[array.ChunkKey]*array.Chunk, len(a.Chunks))
	for key, ch := range a.Chunks {
		cp := &array.Chunk{Coords: make([][]int64, len(ch.Coords)), Cols: make([]array.Column, len(ch.Cols))}
		for d, col := range ch.Coords {
			cp.Coords[d] = append([]int64(nil), col...)
		}
		for i, col := range ch.Cols {
			cp.Cols[i] = array.Column{Type: col.Type, Ints: append([]int64(nil), col.Ints...), Fs: append([]float64(nil), col.Fs...)}
		}
		out[key] = cp
	}
	return out
}

// TestBorrowedSidesStayReadOnly is the guard against a borrowed side's
// view reaching the store pool: a D:D merge query whose units are all
// borrowed runs; a second one starts, takes the first one's pooled
// view headers for its own sides, and waits between Align and Compare;
// meanwhile a hash query and slice maps of another layout, all on a
// few cells, take stores from the pool, every one it holds, and
// overwrite their rows. The merge operands' chunk columns must still
// equal a copy taken before, and the second query must complete.
func TestBorrowedSidesStayReadOnly(t *testing.T) {
	merge := join.Merge
	c := newCluster(t, 4, ddArray("A", "v", 3), ddArray("B", "w", 4),
		buildArray("H<x:int>[i=1,100,10]", 5, 6, 4), buildArray("G<y:int>[i=1,100,10]", 6, 5, 4))
	dl, _ := c.Catalog.Lookup("A")
	dr, _ := c.Catalog.Lookup("B")
	before := []map[array.ChunkKey]*array.Chunk{chunkColumns(dl.Array), chunkColumns(dr.Array)}
	if _, err := pipeline.RunDistributed(c, dl, dr, ddPred, nil, pipeline.Options{ForceAlgo: &merge, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	paused, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	pause := func() { once.Do(func() { close(paused) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer pause()
		qc := pipeline.NewQueryContext(c, dl, dr, ddPred, nil, pipeline.Options{ForceAlgo: &merge, Parallelism: 2})
		wait := probeStage{func(*pipeline.QueryContext) {
			pause()
			<-resume
		}}
		st := pipeline.DefaultStages()
		if err := pipeline.Execute(qc, append(append(append([]pipeline.Stage{}, st[:4]...), wait), st[4:]...)); err != nil {
			t.Error(err)
		}
	}()
	<-paused
	hashPred := join.Predicate{{Left: join.Term{Name: "x"}, Right: join.Term{Name: "y"}}}
	if _, err := pipeline.Run(c, "H", "G", hashPred, nil, pipeline.Options{Parallelism: 4}); err != nil {
		t.Error(err)
	}
	// The pool keeps at most 4 stores: four sides held at once take
	// every one.
	dh, _ := c.Catalog.Lookup("H")
	spec := &shuffle.UnitSpec{Kind: shuffle.HashUnits, NumUnits: 4}
	m := &shuffle.SideMapper{KeyRefs: []join.Ref{{Index: 0, Name: "x"}}, Carry: []int{0}}
	var held []*shuffle.RunSet
	for range 4 {
		rs, err := shuffle.MapSideStream(dh, c.K, spec, m, 2, shuffle.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, rs)
	}
	for _, rs := range held {
		rs.Release()
	}
	close(resume)
	wg.Wait()
	for side, d := range []*array.Array{dl.Array, dr.Array} {
		if !reflect.DeepEqual(chunkColumns(d), before[side]) {
			t.Errorf("%s: the chunks' columns changed", d.Schema.Name)
		}
	}
}
