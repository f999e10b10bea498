package shuffle

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
)

// mixedArray builds A<v:int, tag:string, f:float>[i=1,n,ci] with every
// coordinate occupied — string attributes included so the differential
// tests cover dictionary encoding — distributed round-robin over k
// nodes.
func mixedArray(t *testing.T, name string, n, ci int64, k int) *cluster.Distributed {
	return lineSide(t, name+"<v:int, tag:string, f:float>", n, ci, k)
}

// numArray is mixedArray without the string attribute, so every chunk
// a unit takes whole is borrowed.
func numArray(t *testing.T, name string, n, ci int64, k int) *cluster.Distributed {
	return lineSide(t, name+"<v:int, f:float>", n, ci, k)
}

// lineSide builds name<attrs>[i=1,n,ci] with every coordinate occupied
// (cellValues), distributed round-robin over k nodes.
func lineSide(t *testing.T, nameAttrs string, n, ci int64, k int) *cluster.Distributed {
	t.Helper()
	s := array.MustParseSchema(nameAttrs + "[i=1,100,10]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, ci
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(n))
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, cellValues(s, i, rng))
	}
	return cluster.Distribute(a, k, cluster.RoundRobin)
}

// cellValues draws the attributes of the cell numbered c: an int is c
// mod 13, a string one of three tags, a float uniform in [0, 1).
func cellValues(s *array.Schema, c int64, rng *rand.Rand) []array.Value {
	tags := []string{"port", "open-sea", "anchorage"}
	vals := make([]array.Value, len(s.Attrs))
	for i, at := range s.Attrs {
		switch at.Type {
		case array.TypeInt64:
			vals[i] = array.IntValue(c % 13)
		case array.TypeString:
			vals[i] = array.StringValue(tags[rng.Intn(len(tags))])
		case array.TypeFloat64:
			vals[i] = array.FloatValue(rng.Float64())
		}
	}
	return vals
}

// gridArray builds G<v:int, tag:string, f:float>[i=1,40,5, j=1,30,6]
// with 600 of its cells occupied, the attributes drawn as mixedArray
// draws them, distributed round-robin over k nodes.
func gridArray(t *testing.T, k int) *cluster.Distributed {
	return gridSide(t, "G<v:int, tag:string, f:float>", k)
}

// numGrid is gridArray without the string attribute.
func numGrid(t *testing.T, k int) *cluster.Distributed {
	return gridSide(t, "NG<v:int, f:float>", k)
}

// stringFree reports whether d carries no string attribute, so that
// Place borrows its whole-chunk units.
func stringFree(d *cluster.Distributed) bool {
	return !slices.ContainsFunc(d.Array.Schema.Attrs, func(a array.Attribute) bool { return a.Type == array.TypeString })
}

func gridSide(t *testing.T, nameAttrs string, k int) *cluster.Distributed {
	t.Helper()
	s := array.MustParseSchema(nameAttrs + "[i=1,40,5, j=1,30,6]")
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(40))
	for _, c := range rng.Perm(40 * 30)[:600] {
		a.MustPut([]int64{int64(c/30 + 1), int64(c%30 + 1)}, cellValues(s, int64(c), rng))
	}
	return cluster.Distribute(a, k, cluster.RoundRobin)
}

// streamCase is one mapper shape. whole says which of the side's chunks
// the count pass takes whole (chunkUnit): "all", "some" or "none".
type streamCase struct {
	name  string
	spec  *UnitSpec
	m     *SideMapper
	whole string
}

// streamCases enumerates the mapper shapes the engine actually uses:
// chunk units keyed by a dimension, and hash units keyed by an
// attribute (including a string key). Then chunk units on grids other
// than the side's own first dimension's, for both count paths: a
// coarser interval, an interval and a start that split chunks, a
// narrower range that clamps chunk boxes, a unit dimension taken from
// an attribute, and, on a 2-D side, both dimensions in reverse order.
func streamCases(d *cluster.Distributed) []streamCase {
	dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
	intRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	strRef := join.Ref{IsDim: false, Index: 1, Name: "tag"}
	dims := d.Array.Schema.Dims
	grid := func(start, end, interval int64) []array.Dimension {
		return []array.Dimension{{Name: "i", Start: start, End: end, ChunkInterval: interval}}
	}
	all := allAttrs(d.Array.Schema)
	byDim := &SideMapper{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}, Carry: all}
	i, ci := dims[0], dims[0].ChunkInterval
	cases := []streamCase{
		{"chunk-units-dim-key", &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{i}}, byDim, "all"},
		{"hash-units-int-key", &UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{intRef}, Carry: all}, "none"},
		{"hash-units-string-key", &UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{strRef}, Carry: []int{0, 2}}, "none"},
		{"hash-units-no-carry", &UnitSpec{Kind: HashUnits, NumUnits: 4},
			&SideMapper{KeyRefs: []join.Ref{intRef}}, "none"},
		{"chunk-units-coarser", &UnitSpec{Kind: ChunkUnits, JoinDims: grid(i.Start, i.End, 2*ci)}, byDim, "all"},
		{"chunk-units-split-interval", &UnitSpec{Kind: ChunkUnits, JoinDims: grid(i.Start, i.End, ci*3/2)}, byDim, "some"},
		{"chunk-units-split-start", &UnitSpec{Kind: ChunkUnits, JoinDims: grid(i.Start-ci/2, i.End, 2*ci)}, byDim, "some"},
		{"chunk-units-narrower", &UnitSpec{Kind: ChunkUnits, JoinDims: grid(i.Start+2*ci, i.End-2*ci, ci)}, byDim, "all"},
		{"chunk-units-attr-dim", &UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{{Name: "v", Start: 0, End: 12, ChunkInterval: 4}}},
			&SideMapper{KeyRefs: []join.Ref{intRef}, DimRefs: []join.Ref{intRef}, Carry: all}, "none"},
	}
	if len(dims) == 2 {
		jRef := join.Ref{IsDim: true, Index: 1, Name: "j"}
		j := dims[1]
		cases = append(cases, streamCase{"chunk-units-2d-reversed",
			&UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{
				{Name: "j", Start: j.Start, End: j.End, ChunkInterval: 2 * j.ChunkInterval},
				{Name: "i", Start: i.Start, End: i.End, ChunkInterval: 2 * ci},
			}},
			&SideMapper{KeyRefs: []join.Ref{jRef, dimRef}, DimRefs: []join.Ref{jRef, dimRef}, Carry: all}, "all"})
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err != nil {
			panic(err)
		}
	}
	return cases
}

// TestChunkUnitMatchesRows: for every chunk the count pass would take
// whole, every row's unitOfRow is the chunk's unit, and each mapper
// shape takes whole the chunks it should.
func TestChunkUnitMatchesRows(t *testing.T) {
	for _, d := range []*cluster.Distributed{mixedArray(t, "A", 100, 10, 2), gridArray(t, 2)} {
		s := d.Array.Schema
		for _, tc := range streamCases(d) {
			whole, mixed := 0, 0
			for _, key := range d.Array.SortedKeys() {
				ch := d.Array.Chunks[key]
				u, ok := chunkUnit(tc.spec, tc.m, s, key)
				if !ok {
					mixed++
					continue
				}
				whole++
				for row := 0; row < ch.Len(); row++ {
					if got := unitOfRow(tc.spec, tc.m, ch, row); got != u {
						t.Fatalf("%s %s: chunk %d is unit %d whole, but row %d is in unit %d", s.Name, tc.name, key, u, row, got)
					}
				}
			}
			got := "some"
			switch {
			case mixed == 0:
				got = "all"
			case whole == 0:
				got = "none"
			}
			if got != tc.whole {
				t.Errorf("%s %s: %d chunks whole and %d mixed, want %s whole", s.Name, tc.name, whole, mixed, tc.whole)
			}
		}
	}
}

// TestMapSideStreamMatchesMapSide is the slice-mapping differential
// test: for every mapper shape, node count, and worker count, the
// streamed RunSet reports the same slice statistics as the materializing
// reference, and its readers decode every (unit, destination) pair to
// the exact tuples Assemble produces — same order, same Value kinds,
// same string contents. Then CountSlices and Place under a random
// assignment: every unit's Run holds exactly Assemble's tuples for its
// destination, and the readers still decode every destination's.
func TestMapSideStreamMatchesMapSide(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		sides := []*cluster.Distributed{mixedArray(t, "A", 100, 10, k), gridArray(t, k), numArray(t, "N", 100, 10, k), numGrid(t, k)}
		for _, d := range sides {
			for _, tc := range streamCases(d) {
				numeric := stringFree(d)
				if numeric && tc.spec.Kind != ChunkUnits {
					continue // the hash cases name the string attribute
				}
				for _, workers := range []int{1, 4, 8} {
					name := tc.name
					if len(d.Array.Schema.Dims) == 2 {
						name = "2d/" + name
					}
					if numeric {
						name = "borrowed/" + name
					}
					t.Run(fmt.Sprintf("%s/k=%d/workers=%d", name, k, workers), func(t *testing.T) {
						ss, err := MapSide(d, k, tc.spec, tc.m)
						if err != nil {
							t.Fatal(err)
						}
						rs, err := MapSideStream(d, k, tc.spec, tc.m, workers, StreamConfig{})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(rs.Sizes(), ss.Sizes()) {
							t.Fatalf("Sizes differ:\nstream %v\nref    %v", rs.Sizes(), ss.Sizes())
						}
						for u := 0; u < tc.spec.NumUnits; u++ {
							if rs.UnitTotal(u) != ss.UnitTotal(u) {
								t.Fatalf("UnitTotal(%d) = %d, want %d", u, rs.UnitTotal(u), ss.UnitTotal(u))
							}
							for dest := 0; dest < k; dest++ {
								want := ss.Assemble(u, dest)
								rd := rs.Reader(u, dest)
								got := rd.Materialize()
								if len(got) == 0 && len(want) == 0 {
									rd.Close()
									continue
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("unit %d dest %d: decoded tuples differ", u, dest)
								}
								rd.Close()
							}
						}

						placed, err := CountSlices(d, k, tc.spec, tc.m, workers, StreamConfig{})
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(int64(k*10 + workers)))
						home := make([]int, tc.spec.NumUnits)
						for u := range home {
							home[u] = rng.Intn(k)
						}
						placed.Place(home, workers)
						for u := 0; u < tc.spec.NumUnits; u++ {
							if got, want := runTuples(placed, placed.Run(u)), ss.Assemble(u, home[u]); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
								t.Fatalf("unit %d placed for node %d: the run's tuples differ from Assemble's", u, home[u])
							}
							for dest := 0; dest < k; dest++ {
								rd := placed.Reader(u, dest)
								if got, want := rd.Materialize(), ss.Assemble(u, dest); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
									t.Fatalf("unit %d placed for node %d, read at %d: decoded tuples differ", u, home[u], dest)
								}
								rd.Close()
							}
						}
					})
				}
			}
		}
	}
}

// TestPlaceBorrowsWholeChunkUnits: Place borrows exactly the units
// whose side is one chunk the count pass took whole, when the side
// carries no string: such a unit's Run is the chunk's own columns, rows
// 0 to its length, and the store holds only the other units' rows.
// Releasing the units drops every view.
func TestPlaceBorrowsWholeChunkUnits(t *testing.T) {
	borrowed := 0
	for _, k := range []int{1, 2, 4} {
		sides := []*cluster.Distributed{mixedArray(t, "A", 100, 10, k), gridArray(t, k), numArray(t, "N", 100, 10, k), numGrid(t, k)}
		for _, d := range sides {
			numeric := stringFree(d)
			for _, tc := range streamCases(d) {
				if tc.spec.Kind != ChunkUnits {
					continue
				}
				name := fmt.Sprintf("%s/%s/k=%d", d.Array.Schema.Name, tc.name, k)
				// The chunks holding each unit's cells, and whether the
				// count pass takes the first of them whole.
				holders := make([][]*array.Chunk, tc.spec.NumUnits)
				whole := make([]bool, tc.spec.NumUnits)
				for key, ch := range d.Array.Chunks {
					if u, ok := chunkUnit(tc.spec, tc.m, d.Array.Schema, key); ok && ch.Len() > 0 {
						holders[u] = append(holders[u], ch)
						whole[u] = len(holders[u]) == 1
						continue
					}
					seen := make(map[int]bool)
					for row := 0; row < ch.Len(); row++ {
						if u := unitOfRow(tc.spec, tc.m, ch, row); !seen[u] {
							seen[u] = true
							holders[u] = append(holders[u], ch)
							whole[u] = false
						}
					}
				}
				rs, err := CountSlices(d, k, tc.spec, tc.m, 8, StreamConfig{})
				if err != nil {
					t.Fatal(err)
				}
				home := make([]int, tc.spec.NumUnits)
				for u := range home {
					home[u] = u % k
				}
				rs.Place(home, 8)
				copied := 0
				for u := 0; u < tc.spec.NumUnits; u++ {
					run := rs.Run(u)
					want := numeric && len(holders[u]) == 1 && whole[u]
					if rs.borrowed(u) != want {
						t.Fatalf("%s: unit %d borrowed %v, want %v", name, u, rs.borrowed(u), want)
					}
					if !want {
						copied += run.Len()
						continue
					}
					borrowed++
					ch := holders[u][0]
					if run.Lo != 0 || run.Hi != ch.Len() || &run.Store.Coords[0][0] != &ch.Coords[0][0] || &run.Store.Cols[0].Ints[0] != &ch.Coords[tc.m.KeyRefs[0].Index][0] {
						t.Fatalf("%s: unit %d's run [%d, %d) is not its chunk's %d rows in place", name, u, run.Lo, run.Hi, ch.Len())
					}
				}
				if n := len(rs.store.Coords[0]); n != copied {
					t.Errorf("%s: the store holds %d rows, want the %d copied", name, n, copied)
				}
				rs.Release()
				if rs.views != nil || rs.store != nil {
					t.Errorf("%s: the released side still holds its views or store", name)
				}
			}
		}
	}
	if borrowed == 0 {
		t.Error("no unit was borrowed: the fixtures lost their whole-chunk units")
	}
}

// TestBorrowedUnitsIgnorePooledOffsets: Place's views are pooled, and a
// borrowed unit's rows start at 0 whatever offset an earlier side's
// copied unit left in the pooled views. A mixed side (units 0 and 5
// copied, 1–4 borrowed) is placed and released, then a side whose six
// units are all borrowed is placed from the same pooled views: every
// slice of every unit must fall inside the unit's own rows and decode to
// Assemble's tuples.
func TestBorrowedUnitsIgnorePooledOffsets(t *testing.T) {
	const k = 2
	dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
	place := func(d *cluster.Distributed, dims []array.Dimension) (*RunSet, *UnitSpec, *SideMapper) {
		spec := &UnitSpec{Kind: ChunkUnits, JoinDims: dims}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		m := &SideMapper{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}, Carry: allAttrs(d.Array.Schema)}
		rs, err := CountSlices(d, k, spec, m, 1, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rs.Place(nil, 1)
		return rs, spec, m
	}

	// Cells 1–30 clamp into unit 0 and 71–100 into unit 5; 31–70 are one
	// chunk per unit.
	mixed, _, _ := place(numArray(t, "N", 100, 10, k), []array.Dimension{{Name: "i", Start: 21, End: 80, ChunkInterval: 10}})
	if mixed.borrowed(5) || !mixed.borrowed(1) || mixed.views.at[5] == 0 {
		t.Fatal("fixture: the mixed side lost its copied unit 5 at a non-zero offset")
	}
	pooled := mixed.views
	mixed.Release()

	d := numArray(t, "M", 60, 10, k)
	rs, spec, m := place(d, d.Array.Schema.Dims)
	defer rs.Release()
	if rs.views != pooled {
		t.Fatal("fixture: the all-borrowed side did not take the released views from the pool")
	}
	ref, err := MapSide(d, k, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < spec.NumUnits; u++ {
		if !rs.borrowed(u) {
			t.Fatalf("fixture: unit %d is not borrowed", u)
		}
		for dest := 0; dest < k; dest++ {
			rd := rs.Reader(u, dest)
			for i := 0; i < k; i++ {
				if lo, hi := rd.sliceAt(i); lo < 0 || hi > int(rs.UnitTotal(u)) {
					t.Fatalf("unit %d read at %d: slice %d is rows [%d, %d) of a %d-row view", u, dest, i, lo, hi, rs.UnitTotal(u))
				}
			}
			if got, want := rd.Materialize(), ref.Assemble(u, dest); !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d read at %d: decoded tuples differ from Assemble's", u, dest)
			}
			rd.Close()
		}
	}
}

// runTuples decodes a run's rows of the RunSet's store as Assemble's
// tuples: the key columns, the coordinates, then the carried values.
func runTuples(rs *RunSet, run batch.Run) []join.Tuple {
	var ts []join.Tuple
	nkey := rs.lay.nkey
	for i := run.Lo; i < run.Hi; i++ {
		t := join.Tuple{Key: []array.Value{}, Coords: []int64{}}
		for c := range run.Store.Cols {
			v := run.Store.Cols[c].Value(i, rs.intern)
			if c < nkey {
				t.Key = append(t.Key, v)
			} else {
				t.Attrs = append(t.Attrs, v)
			}
		}
		for d := range run.Store.Coords {
			t.Coords = append(t.Coords, run.Store.Coords[d][i])
		}
		ts = append(ts, t)
	}
	return ts
}

// TestRunSetBudgetLifecycle: each side is charged once, for all its
// cells, and every released unit is credited, so Used falls as units
// retire; after all units retire the budget reads zero and ReleaseUnit
// is idempotent. Each side records one credit event, of all its bytes,
// whether its last unit retires through ReleaseUnit or through Release
// when the query stops early.
func TestRunSetBudgetLifecycle(t *testing.T) {
	const k = 3
	d := mixedArray(t, "C", 60, 10, k)
	tc := streamCases(d)[1]
	fr := flight.New(256)
	bud := batch.NewBudget(0, false)
	bud.SetFlight(fr, 1)
	var sets []*RunSet
	for side := 0; side < 2; side++ {
		rs, err := MapSideStream(d, k, tc.spec, tc.m, k, StreamConfig{Budget: bud})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rs)
	}
	// 60 cells × (1 dimension + 1 key + 3 carried values) × 8 bytes.
	const sideBytes = 60 * 5 * 8
	if bud.Used() != 2*sideBytes || bud.Peak() != bud.Used() {
		t.Fatalf("after mapping: Used=%d Peak=%d, want both %d", bud.Used(), bud.Peak(), 2*sideBytes)
	}
	charges := 0
	for _, e := range fr.Snapshot(0) {
		if e.Type == flight.EvBudgetCharge {
			charges++
			if e.Args[0] != sideBytes {
				t.Errorf("a charge of %d bytes, want the side's %d", e.Args[0], sideBytes)
			}
		}
	}
	if charges != 2 {
		t.Errorf("%d budget charges for two sides, want 2", charges)
	}
	for u := 0; u < tc.spec.NumUnits; u++ {
		before := bud.Used()
		sets[0].ReleaseUnit(u)
		sets[0].ReleaseUnit(u) // idempotent
		if want := before - sets[0].UnitTotal(u)*5*8; bud.Used() != want {
			t.Errorf("after releasing unit %d: Used = %d, want %d", u, bud.Used(), want)
		}
	}
	sets[1].ReleaseUnit(0)
	sets[1].Release() // the query stopped early
	if bud.Used() != 0 {
		t.Errorf("after releasing every unit: Used = %d, want 0", bud.Used())
	}
	credits := 0
	for _, e := range fr.Snapshot(0) {
		if e.Type == flight.EvBudgetCredit {
			credits++
			if e.Args[0] != sideBytes {
				t.Errorf("a credit of %d bytes, want the side's %d", e.Args[0], sideBytes)
			}
		}
	}
	if credits != 2 {
		t.Errorf("%d budget credits for two sides, want 2", credits)
	}
}

// TestMapSideStreamStrictBudget: a strict budget one byte below the
// side's bytes fails the map with ErrBudget before any column is
// allocated, and a budget of exactly the side's bytes maps it.
func TestMapSideStreamStrictBudget(t *testing.T) {
	const k, cells = 2, 4000
	d := mixedArray(t, "D", cells, 100, k)
	tc := streamCases(d)[0]
	// One dimension, one key and three carried values, 8 bytes each.
	const sideBytes = cells * 5 * 8
	// Empty the store pool (it keeps at most 4), so a store taken would
	// be allocated.
	for i := 0; i < 4; i++ {
		batch.Get(1, nil, 0)
	}
	gc := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{Budget: batch.NewBudget(sideBytes-1, true)})
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("limit %d: err = %v, want batch.ErrBudget", sideBytes-1, err)
	}
	// The map's own scratch (a unit per row, 4 bytes) is less than one
	// 8-byte column of the side.
	if n := after.TotalAlloc - before.TotalAlloc; n >= cells*8 {
		t.Errorf("the failed map allocated %d bytes, as much as a column (%d)", n, cells*8)
	}
	if _, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{Budget: batch.NewBudget(sideBytes, true)}); err != nil {
		t.Fatalf("limit %d, the side's bytes: %v", sideBytes, err)
	}
}

// TestMapSideStreamConcurrentCallers: concurrent slice maps of one
// Distributed, the first of which builds its cached per-node chunk order
// while the others wait on it, all see the placement a fresh sort of the
// array's keys gives — under both placement policies — and decode the
// same tuples as the reference mapper on a second, unshared Distributed.
// Run under -race it also checks that the cached order is published
// safely.
func TestMapSideStreamConcurrentCallers(t *testing.T) {
	const k, callers = 3, 6
	a := array.MustNew(array.MustParseSchema("G<v:int, tag:string>[i=1,40,5, j=1,40,5]"))
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 900; n++ {
		a.MustPut([]int64{1 + rng.Int63n(40), 1 + rng.Int63n(40)},
			[]array.Value{array.IntValue(rng.Int63n(50)), array.StringValue(fmt.Sprint(rng.Intn(9)))})
	}
	a.SortAll()
	iRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
	vRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	mappers := []struct {
		spec *UnitSpec
		m    *SideMapper
	}{
		{&UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{a.Schema.Dims[0]}},
			&SideMapper{KeyRefs: []join.Ref{iRef}, DimRefs: []join.Ref{iRef}, Carry: []int{0, 1}}},
		{&UnitSpec{Kind: HashUnits, NumUnits: 8}, &SideMapper{KeyRefs: []join.Ref{vRef}, Carry: []int{1}}},
	}
	for _, policy := range []cluster.PlacementPolicy{cluster.RoundRobin, cluster.HashChunks} {
		for mi, mp := range mappers {
			if err := mp.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			d := cluster.Distribute(a, k, policy)
			want := make([][]int64, mp.spec.NumUnits)
			for u := range want {
				want[u] = make([]int64, k)
			}
			for _, key := range a.SortedKeys() {
				ch := a.Chunks[key]
				for row := 0; row < ch.Len(); row++ {
					want[unitOfRow(mp.spec, mp.m, ch, row)][d.Placement[key]]++
				}
			}
			ref, err := MapSide(cluster.DistributeExplicit(a, d.Placement), k, mp.spec, mp.m)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rs, err := MapSideStream(d, k, mp.spec, mp.m, 1+c%3, StreamConfig{})
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(rs.Sizes(), want) {
						t.Errorf("policy %v mapper %d caller %d: Sizes %v, want %v", policy, mi, c, rs.Sizes(), want)
						return
					}
					for u := 0; u < mp.spec.NumUnits; u++ {
						for dest := 0; dest < k; dest++ {
							rd := rs.Reader(u, dest)
							got, exp := rd.Materialize(), ref.Assemble(u, dest)
							if (len(got) > 0 || len(exp) > 0) && !reflect.DeepEqual(got, exp) {
								t.Errorf("policy %v mapper %d caller %d: unit %d dest %d tuples differ", policy, mi, c, u, dest)
							}
							rd.Close()
						}
					}
				}(c)
			}
			wg.Wait()
		}
	}
}
