package join

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
)

// keyModes are the key column types FuzzColumnarJoin draws, left side
// then right side, one entry per key column. The mode is the fuzz
// argument mod len(keyModes): a new mode goes at the end, and the count
// keeps every named corpus file on the mode it was written for
// (TestFuzzCorpusModes).
var keyModes = [][2][]array.ScalarType{
	{{array.TypeInt64}, {array.TypeInt64}},
	{{array.TypeFloat64}, {array.TypeFloat64}},
	{{array.TypeString}, {array.TypeString}},
	{{array.TypeInt64}, {array.TypeFloat64}},
	{{array.TypeFloat64}, {array.TypeInt64}},
	{{array.TypeInt64}, {array.TypeString}},
	{{array.TypeInt64, array.TypeString}, {array.TypeFloat64, array.TypeString}},
	{{array.TypeString, array.TypeFloat64}, {array.TypeString, array.TypeFloat64}},
	{{array.TypeInt64, array.TypeInt64}, {array.TypeInt64, array.TypeInt64}},
	{{array.TypeInt64, array.TypeInt64, array.TypeInt64}, {array.TypeInt64, array.TypeInt64, array.TypeInt64}},
	{{array.TypeInt64, array.TypeInt64}, {array.TypeInt64, array.TypeFloat64}},
	{{array.TypeFloat64, array.TypeInt64}, {array.TypeInt64, array.TypeInt64}},
}

// fuzzValue draws one key value of type t from a domain of the given
// size. Ints and integral floats share values, so int×float keys match;
// the domain is shifted near 2^53 or 2^62 when big is set, where
// float64 cannot tell neighbouring ints apart; floats include -0, halves
// and, rarely, NaN.
func fuzzValue(rng *rand.Rand, t array.ScalarType, domain int64, big int64) array.Value {
	k := rng.Int63n(domain)
	switch t {
	case array.TypeInt64:
		return array.IntValue(big + k)
	case array.TypeFloat64:
		switch rng.Intn(16) {
		case 0:
			return array.FloatValue(math.NaN())
		case 1:
			return array.FloatValue(math.Copysign(0, -1))
		case 2:
			return array.FloatValue(float64(k) + 0.5)
		}
		return array.FloatValue(float64(big + k))
	}
	return array.StringValue(string(rune('a' + k%26)))
}

// fuzzSide builds one side of n rows: the cells as a run at a random
// Lo > 0 inside a larger store, whose rows outside the run hold keys
// too, and the side's tuples in run order, whose Coords hold the run
// row number. An ascending side is then sorted and its repeated keys
// dropped, shortening the run, so that its keys ascend strictly unless
// a NaN's ties upset the sort; with lastDown its last two rows then
// swap, so that it ascends except at its last row.
func fuzzSide(rng *rand.Rand, n int, types []array.ScalarType, domain, big int64, in *batch.Intern, ascending, lastDown bool) ([]Tuple, batch.Run) {
	store := &batch.Batch{Cols: make([]batch.Col, len(types))}
	for c, t := range types {
		store.Cols[c].Type = t
	}
	lo := 1 + rng.Intn(8)
	hi := lo + n
	ts := make([]Tuple, 0, n)
	for r := 0; r < hi+rng.Intn(8); r++ {
		key := make([]array.Value, len(types))
		for c, t := range types {
			v := fuzzValue(rng, t, domain, big)
			key[c] = v
			col := &store.Cols[c]
			switch t {
			case array.TypeInt64:
				col.Ints = append(col.Ints, v.Int)
			case array.TypeFloat64:
				col.Fs = append(col.Fs, v.F)
			case array.TypeString:
				col.Codes = append(col.Codes, in.ID(v.Str))
			}
		}
		if lo <= r && r < hi {
			ts = append(ts, Tuple{Key: key, Coords: []int64{int64(len(ts))}})
		}
	}
	if ascending {
		SortTuples(ts)
		ts = slices.CompactFunc(ts, func(a, b Tuple) bool { return KeyCompare(&a, &b) == 0 })
		if n := len(ts); lastDown && n >= 2 {
			ts[n-2].Key, ts[n-1].Key = ts[n-1].Key, ts[n-2].Key
		}
		for i := range ts {
			ts[i].Coords[0] = int64(i)
			for c, v := range ts[i].Key {
				col := &store.Cols[c]
				switch v.Kind {
				case array.TypeInt64:
					col.Ints[lo+i] = v.Int
				case array.TypeFloat64:
					col.Fs[lo+i] = v.F
				case array.TypeString:
					col.Codes[lo+i] = in.ID(v.Str)
				}
			}
		}
		hi = lo + len(ts)
	}
	return ts, batch.Run{Store: store, Lo: lo, Hi: hi}
}

// FuzzColumnarJoin is the columnar kernels' differential test: over
// random sides — every key type pairing, duplicate rates, runs inside
// larger stores, keys near 2^53 and 2^62 — RunColumns lists exactly the
// pairs, in exactly the order, and counts exactly the Stats that
// RunStream emits over the same cells as Tuples, for all three
// algorithms, errors included. RunStream is Run, whose hash join is a
// Go map of build rows by key hash: it shares no code with the kernel's
// hash index. The sixth argument, mod 4, says which sides are
// ascending (fuzzSide): none, the left, the right or both, so the merge
// kernel's path for a side that needs no sort is reached too; bit 4
// (16) of it makes each ascending side descend at its last row.
func FuzzColumnarJoin(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(60), uint8(0), uint8(8), uint8(0), uint8(0))
	f.Add(int64(2), uint8(90), uint8(30), uint8(3), uint8(3), uint8(0), uint8(1))
	f.Add(int64(3), uint8(50), uint8(50), uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(20), uint8(6), uint8(5), uint8(0), uint8(0))
	f.Add(int64(5), uint8(70), uint8(70), uint8(1), uint8(40), uint8(0), uint8(3))
	f.Add(int64(6), uint8(33), uint8(9), uint8(4), uint8(2), uint8(0), uint8(4))
	f.Add(int64(7), uint8(25), uint8(64), uint8(7), uint8(6), uint8(0), uint8(5))
	f.Add(int64(8), uint8(60), uint8(80), uint8(0), uint8(200), uint8(3), uint8(0))
	f.Add(int64(9), uint8(40), uint8(40), uint8(6), uint8(100), uint8(1), uint8(1))
	f.Add(int64(10), uint8(90), uint8(50), uint8(1), uint8(120), uint8(2), uint8(0))
	f.Add(int64(11), uint8(30), uint8(70), uint8(2), uint8(25), uint8(3), uint8(2))
	// Ascending int64 keys of widths 1, 2 and 3 near ±2^62, the typed
	// merge's shapes and the first width past them; sides that ascend
	// except at the last row; an empty side.
	f.Add(int64(12), uint8(60), uint8(80), uint8(0), uint8(200), uint8(3), uint8(3))
	f.Add(int64(13), uint8(70), uint8(90), uint8(8), uint8(12), uint8(3), uint8(4))
	f.Add(int64(14), uint8(50), uint8(70), uint8(9), uint8(5), uint8(3), uint8(3))
	f.Add(int64(15), uint8(60), uint8(80), uint8(0), uint8(200), uint8(17), uint8(3))
	f.Add(int64(16), uint8(70), uint8(90), uint8(8), uint8(12), uint8(19), uint8(4))
	f.Add(int64(17), uint8(0), uint8(60), uint8(8), uint8(12), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nl, nr, mode, domain, ascending, bigSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		types := keyModes[int(mode)%len(keyModes)]
		big := []int64{0, 1 << 53, 1<<53 - 4, 1 << 62, -1 << 62, -1 << 53}[int(bigSel)%6]
		dom := int64(domain) + 1
		in := batch.NewIntern()
		lastDown := ascending&16 != 0
		lt, lrun := fuzzSide(rng, int(nl), types[0], dom, big, in, ascending%4&1 != 0, lastDown)
		rt, rrun := fuzzSide(rng, int(nr), types[1], dom, big, in, ascending%4&2 != 0, lastDown)
		checkColumns(t, lt, rt, lrun, rrun, len(types[0]), in)
	})
}

// TestFuzzCorpusModes: each named corpus file of FuzzColumnarJoin
// still draws the key types it was written for under the current
// len(keyModes).
func TestFuzzCorpusModes(t *testing.T) {
	i, f, s := array.TypeInt64, array.TypeFloat64, array.TypeString
	for name, want := range map[string][2][]array.ScalarType{
		"ascending_float_string_keys_nan_first":    {{i, s}, {f, s}},
		"float_int_keys_near_2_62_one_row_batches": {{f}, {i}},
		"float_keys_nan_and_minus_zero":            {{f}, {f}},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzColumnarJoin", name))
		if err != nil {
			t.Fatal(err)
		}
		// The file's fifth line is the fourth argument, the mode: uint8(n)
		// or byte('c').
		arg := strings.Split(string(data), "\n")[4]
		var mode uint64
		if v, ok := strings.CutPrefix(arg, "uint8("); ok {
			mode, err = strconv.ParseUint(strings.TrimSuffix(v, ")"), 10, 8)
		} else if v, ok := strings.CutPrefix(arg, "byte('"); ok {
			var r rune
			r, _, _, err = strconv.UnquoteChar(strings.TrimSuffix(v, "')"), '\'')
			mode = uint64(r)
		} else {
			err = fmt.Errorf("not a uint8 argument: %q", arg)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := keyModes[mode%uint64(len(keyModes))]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mode %d draws %v, want %v", name, mode, got, want)
		}
	}
}

// checkColumns holds RunColumns on the runs to RunStream on the same
// cells as tuples, whose Coords hold their run row numbers: the same
// pairs in the same order, the same Stats, and an error from both or
// neither, for all three algorithms.
func checkColumns(t *testing.T, lt, rt []Tuple, lrun, rrun batch.Run, nkey int, in *batch.Intern) {
	t.Helper()
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		var want [][2]int64
		emit := func(l, r *Tuple) { want = append(want, [2]int64{l.Coords[0], r.Coords[0]}) }
		wantSt, wantErr := RunStream(alg, &SliceStream{Tuples: copyTuples(lt)}, &SliceStream{Tuples: copyTuples(rt)}, emit)
		var m Matches
		st, err := RunColumns(alg, lrun, rrun, nkey, in, &m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: err = %v, want %v", alg, err, wantErr)
		}
		if st != wantSt {
			t.Fatalf("%v: Stats = %+v, want %+v", alg, st, wantSt)
		}
		var got [][2]int64
		for i := range m.L {
			got = append(got, [2]int64{int64(m.L[i]), int64(m.R[i])})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: %d pairs differ from RunStream's %d", alg, len(got), len(want))
		}
	}
}

// keyRun builds a side from its keys, row by row, one value per key
// column: the tuples, whose Coords hold their row numbers, and the run
// over a store of the same cells.
func keyRun(in *batch.Intern, rows ...[]array.Value) ([]Tuple, batch.Run) {
	store := &batch.Batch{Cols: make([]batch.Col, len(rows[0]))}
	ts := make([]Tuple, len(rows))
	for i, key := range rows {
		ts[i] = Tuple{Key: key, Coords: []int64{int64(i)}}
		for c, v := range key {
			col := &store.Cols[c]
			col.Type = v.Kind
			switch v.Kind {
			case array.TypeInt64:
				col.Ints = append(col.Ints, v.Int)
			case array.TypeFloat64:
				col.Fs = append(col.Fs, v.F)
			case array.TypeString:
				col.Codes = append(col.Codes, in.ID(v.Str))
			}
		}
	}
	return ts, batch.Run{Store: store, Hi: len(rows)}
}

// TestMergeAscendingMatchesRunStream holds the kernels to RunStream on
// sides the merge kernel takes as they are, strictly ascending, and on
// sides one step from that, which it must sort: a tie, a zero of each
// sign, and NaN keys, whose sort RunStream's check refuses.
func TestMergeAscendingMatchesRunStream(t *testing.T) {
	i, f, s := array.IntValue, array.FloatValue, array.StringValue
	keys := func(vs ...array.Value) [][]array.Value {
		rows := make([][]array.Value, len(vs))
		for r, v := range vs {
			rows[r] = []array.Value{v}
		}
		return rows
	}
	// A descending side with a NaN among it that SortTuples leaves out
	// of order, so RunStream fails.
	var nan []array.Value
	for r := 14; r >= 1; r-- {
		nan = append(nan, f(float64(r)))
	}
	nan[6] = f(math.NaN())
	for _, tc := range []struct {
		name        string
		left, right [][]array.Value
		fails       bool
	}{
		{"int", keys(i(1), i(3), i(5), i(7)), keys(i(2), i(3), i(4), i(7), i(9)), false},
		{"float", keys(f(-2.5), f(0.5), f(1), f(3)), keys(f(0.5), f(2), f(3)), false},
		{"string", keys(s("a"), s("c"), s("e")), keys(s("b"), s("c"), s("e"), s("f")), false},
		{"int-pairs", [][]array.Value{{i(1), i(1)}, {i(1), i(3)}, {i(2), i(0)}, {i(4), i(2)}},
			[][]array.Value{{i(1), i(3)}, {i(2), i(0)}, {i(2), i(1)}, {i(4), i(2)}}, false},
		{"one-tie", keys(i(1), i(2), i(2), i(3)), keys(i(2), i(3), i(4)), false},
		{"signed-zeros", keys(f(-1), f(math.Copysign(0, -1)), f(0), f(1)), keys(f(0), f(1)), false},
		{"nan-ascending", keys(f(1), f(2), f(math.NaN()), f(4)), keys(f(2), f(4)), false},
		{"nan-fails", keys(nan...), keys(f(2), f(4)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := batch.NewIntern()
			lt, lrun := keyRun(in, tc.left...)
			rt, rrun := keyRun(in, tc.right...)
			checkColumns(t, lt, rt, lrun, rrun, len(tc.left[0]), in)
			var m Matches
			if _, err := RunColumns(Merge, lrun, rrun, len(tc.left[0]), in, &m); (err != nil) != tc.fails {
				t.Errorf("merge: err = %v, want an error: %v", err, tc.fails)
			}
		})
	}
}

// TestBigIntKeysExact: int64 keys that float64 rounds together — 2^53
// and 2^53+1, 2^62 and 2^62+1 — are different keys to every algorithm,
// on Tuples and on columns alike.
func TestBigIntKeysExact(t *testing.T) {
	for _, base := range []int64{1 << 53, 1 << 62, -1 << 62} {
		left := []int64{base, base + 1, base + 2}
		right := []int64{base + 1, base + 3}
		lt, rt := intTuples(left...), intTuples(right...)
		lb, rb := intRun(left), intRun(right)
		for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
			st, err := Run(alg, copyTuples(lt), copyTuples(rt), nil)
			if err != nil || st.Matches != 1 {
				t.Errorf("base %d, %v on Tuples: %d matches (err %v), want 1", base, alg, st.Matches, err)
			}
			var m Matches
			st, err = RunColumns(alg, lb, rb, 1, nil, &m)
			if err != nil || st.Matches != 1 || len(m.L) != 1 || m.L[0] != 1 || m.R[0] != 0 {
				t.Errorf("base %d, %v on columns: %d matches %v (err %v), want left row 1 with right row 0", base, alg, st.Matches, m, err)
			}
		}
	}
}
