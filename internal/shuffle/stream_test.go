package shuffle

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
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
	t.Helper()
	s := array.MustParseSchema(name + "<v:int, tag:string, f:float>[i=1,100,10]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, ci
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(n))
	tags := []string{"port", "open-sea", "anchorage"}
	for i := int64(1); i <= n; i++ {
		a.MustPut([]int64{i}, []array.Value{
			array.IntValue(i % 13),
			array.StringValue(tags[rng.Intn(len(tags))]),
			array.FloatValue(rng.Float64()),
		})
	}
	return cluster.Distribute(a, k, cluster.RoundRobin)
}

// streamCases enumerates the mapper shapes the engine actually uses:
// chunk units keyed by a dimension, and hash units keyed by an
// attribute (including a string key).
func streamCases(d *cluster.Distributed) []struct {
	name string
	spec *UnitSpec
	m    *SideMapper
} {
	dimRef := join.Ref{IsDim: true, Index: 0, Name: "i"}
	intRef := join.Ref{IsDim: false, Index: 0, Name: "v"}
	strRef := join.Ref{IsDim: false, Index: 1, Name: "tag"}
	return []struct {
		name string
		spec *UnitSpec
		m    *SideMapper
	}{
		{
			"chunk-units-dim-key",
			&UnitSpec{Kind: ChunkUnits, JoinDims: []array.Dimension{d.Array.Schema.Dims[0]}},
			&SideMapper{KeyRefs: []join.Ref{dimRef}, DimRefs: []join.Ref{dimRef}, CarryAll: true},
		},
		{
			"hash-units-int-key",
			&UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{intRef}, CarryAll: true},
		},
		{
			"hash-units-string-key",
			&UnitSpec{Kind: HashUnits, NumUnits: 8},
			&SideMapper{KeyRefs: []join.Ref{strRef}, Carry: []int{0, 2}},
		},
		{
			"hash-units-no-carry",
			&UnitSpec{Kind: HashUnits, NumUnits: 4},
			&SideMapper{KeyRefs: []join.Ref{intRef}},
		},
	}
}

// TestMapSideStreamMatchesMapSideN is the slice-mapping differential
// test: for every mapper shape, node count, and worker count, the
// streamed RunSet reports the same slice statistics as the materializing
// reference, and its readers decode every (unit, destination) pair to
// the exact tuples Assemble produces — same order, same Value kinds,
// same string contents. On one node a run is one span; on more, a unit
// assembled past node 0 has several.
func TestMapSideStreamMatchesMapSideN(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		d := mixedArray(t, "A", 100, 10, k)
		for _, tc := range streamCases(d) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/k=%d/workers=%d", tc.name, k, workers), func(t *testing.T) {
					ss, err := MapSideN(d, k, tc.spec, tc.m, workers)
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
				})
			}
		}
	}
}

// TestReaderWindowsConcatenate pins the windowed pull path against
// whole-side materialization: Next yields one window per span of the
// unit's run, and their concatenation equals Materialize.
func TestReaderWindowsConcatenate(t *testing.T) {
	const k = 3
	d := mixedArray(t, "B", 90, 10, k)
	tc := streamCases(d)[1]
	rs, err := MapSideStream(d, k, tc.spec, tc.m, 1, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < tc.spec.NumUnits; u++ {
		for dest := 0; dest < k; dest++ {
			whole := rs.Reader(u, dest)
			want := append([]join.Tuple(nil), whole.Materialize()...)
			// Deep-copy: window arenas are reused across Next calls.
			for i := range want {
				want[i].Key = append([]array.Value(nil), want[i].Key...)
				want[i].Coords = append([]int64(nil), want[i].Coords...)
				want[i].Attrs = append([]array.Value(nil), want[i].Attrs...)
			}
			whole.Close()

			spans := rs.Run(u, dest, nil).Spans
			rd := rs.Reader(u, dest)
			var got []join.Tuple
			for w := 0; ; w++ {
				win, ok := rd.Next()
				if !ok {
					if w != len(spans) {
						t.Fatalf("unit %d dest %d: %d windows, want one per span, %d", u, dest, w, len(spans))
					}
					break
				}
				if w >= len(spans) || len(win) != spans[w].Hi-spans[w].Lo {
					t.Fatalf("unit %d dest %d: window %d of %d tuples, spans %v", u, dest, w, len(win), spans)
				}
				for i := range win {
					got = append(got, join.Tuple{
						Key:    append([]array.Value(nil), win[i].Key...),
						Coords: append([]int64(nil), win[i].Coords...),
						Attrs:  append([]array.Value(nil), win[i].Attrs...),
					})
				}
			}
			rd.Close()
			if len(got) != len(want) {
				t.Fatalf("unit %d dest %d: %d windowed tuples, want %d", u, dest, len(got), len(want))
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d dest %d: windowed tuples differ from Materialize", u, dest)
			}
		}
	}
}

// TestRunSetBudgetLifecycle: each side is charged once, for all its
// cells, and every released unit is credited; after all units retire
// the budget reads zero and ReleaseUnit is idempotent.
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
	for _, rs := range sets {
		for u := 0; u < tc.spec.NumUnits; u++ {
			rs.ReleaseUnit(u)
			rs.ReleaseUnit(u) // idempotent
		}
	}
	if bud.Used() != 0 {
		t.Errorf("after releasing every unit: Used = %d, want 0", bud.Used())
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
			&SideMapper{KeyRefs: []join.Ref{iRef}, DimRefs: []join.Ref{iRef}, CarryAll: true}},
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
			ref, err := MapSideN(cluster.DistributeExplicit(a, d.Placement), k, mp.spec, mp.m, 1)
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
