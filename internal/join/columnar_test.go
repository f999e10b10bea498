package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/batch"
)

// keyModes are the key column types FuzzColumnarJoin draws, left side
// then right side, one entry per key column.
var keyModes = [][2][]array.ScalarType{
	{{array.TypeInt64}, {array.TypeInt64}},
	{{array.TypeFloat64}, {array.TypeFloat64}},
	{{array.TypeString}, {array.TypeString}},
	{{array.TypeInt64}, {array.TypeFloat64}},
	{{array.TypeFloat64}, {array.TypeInt64}},
	{{array.TypeInt64}, {array.TypeString}},
	{{array.TypeInt64, array.TypeString}, {array.TypeFloat64, array.TypeString}},
	{{array.TypeString, array.TypeFloat64}, {array.TypeString, array.TypeFloat64}},
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

// fuzzSide builds one side of n rows: the cells as a store, the store
// cut into spans of the given size, in store order or, at random,
// rotated as RunSet.Run returns a unit for a destination past node 0
// (one span first, then the others in order), and the side's tuples in
// run order, whose Coords hold the run row number.
func fuzzSide(rng *rand.Rand, n int, types []array.ScalarType, domain, big int64, size int, in *batch.Intern) ([]Tuple, batch.Run) {
	store := &batch.Batch{Cols: make([]batch.Col, len(types))}
	for c, t := range types {
		store.Cols[c].Type = t
	}
	keys := make([][]array.Value, n)
	for i := range keys {
		keys[i] = make([]array.Value, len(types))
		for c, t := range types {
			v := fuzzValue(rng, t, domain, big)
			keys[i][c] = v
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
	}
	var spans []batch.Span
	for lo := 0; lo < n; lo += size {
		spans = append(spans, batch.Span{Lo: lo, Hi: min(lo+size, n)})
	}
	if len(spans) > 1 && rng.Intn(2) == 0 {
		j := rng.Intn(len(spans))
		spans = append(append([]batch.Span{spans[j]}, spans[:j]...), spans[j+1:]...)
	}
	ts := make([]Tuple, 0, n)
	for _, sp := range spans {
		for r := sp.Lo; r < sp.Hi; r++ {
			ts = append(ts, Tuple{Key: keys[r], Coords: []int64{int64(len(ts))}})
		}
	}
	return ts, batch.Run{Store: store, Spans: spans}
}

// FuzzColumnarJoin is the columnar kernels' differential test: over
// random sides — every key type pairing, duplicate rates, runs cut into
// spans of 1, 7 and 1024 rows, in store or rotated order, keys near 2^53
// and 2^62 — RunColumns lists exactly the
// pairs, in exactly the order, and counts exactly the Stats that
// RunStream emits over the same cells as Tuples, for all three
// algorithms, errors included.
func FuzzColumnarJoin(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(60), uint8(0), uint8(8), uint8(2), uint8(0))
	f.Add(int64(2), uint8(90), uint8(30), uint8(3), uint8(3), uint8(1), uint8(1))
	f.Add(int64(3), uint8(50), uint8(50), uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(20), uint8(6), uint8(5), uint8(2), uint8(0))
	f.Add(int64(5), uint8(70), uint8(70), uint8(1), uint8(40), uint8(1), uint8(3))
	f.Add(int64(6), uint8(33), uint8(9), uint8(4), uint8(2), uint8(0), uint8(4))
	f.Add(int64(7), uint8(25), uint8(64), uint8(7), uint8(6), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nl, nr, mode, domain, sizeSel, bigSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		types := keyModes[int(mode)%len(keyModes)]
		size := []int{1, 7, 1024}[int(sizeSel)%3]
		big := []int64{0, 1 << 53, 1<<53 - 4, 1 << 62, -1 << 62, -1 << 53}[int(bigSel)%6]
		dom := int64(domain) + 1
		in := batch.NewIntern()
		lt, lrun := fuzzSide(rng, int(nl), types[0], dom, big, size, in)
		rt, rrun := fuzzSide(rng, int(nr), types[1], dom, big, size, in)
		for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
			var want [][2]int64
			emit := func(l, r *Tuple) { want = append(want, [2]int64{l.Coords[0], r.Coords[0]}) }
			wantSt, wantErr := RunStream(alg, &SliceStream{Tuples: copyTuples(lt), Window: size}, &SliceStream{Tuples: copyTuples(rt)}, emit)
			var m Matches
			st, err := RunColumns(alg, lrun, rrun, len(types[0]), in, &m)
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
	})
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
