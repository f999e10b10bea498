package storage

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
)

// FuzzReadArray feeds the decoder WriteArray output and its truncations,
// both as they are and re-sealed with a valid checksum so that mutations
// reach the decoder behind it. Input that fails to decode must return an
// error, never panic; input that decodes must re-encode and decode to an
// equal array.
func FuzzReadArray(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, src := range []string{
		"A<v:int>[i=1,100,10]",
		"B<x:float, s:string>[i=1,40,8, j=-5,30,7]",
		"C<v:int, x:float, s:string>[i=1,20,5, j=1,20,5, k=1,20,5]",
	} {
		a := array.MustNew(array.MustParseSchema(src))
		for n := 0; n < 12; n++ {
			coords := make([]int64, len(a.Schema.Dims))
			for d, dim := range a.Schema.Dims {
				coords[d] = dim.Start + rng.Int63n(dim.End-dim.Start+1)
			}
			attrs := make([]array.Value, len(a.Schema.Attrs))
			for i, at := range a.Schema.Attrs {
				switch at.Type {
				case array.TypeInt64:
					attrs[i] = array.IntValue(rng.Int63n(1000) - 500)
				case array.TypeFloat64:
					attrs[i] = array.FloatValue(rng.NormFloat64())
				default:
					attrs[i] = array.StringValue(string(rune('a' + rng.Intn(26))))
				}
			}
			a.MustPut(coords, attrs)
		}
		var buf bytes.Buffer
		if err := WriteArray(&buf, a); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, cut := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 5} {
			f.Add(raw[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealed(data)} {
			a, err := ReadArray(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := WriteArray(&buf, a); err != nil {
				t.Fatalf("re-encoding a decoded array: %v", err)
			}
			b, err := ReadArray(&buf)
			if err != nil {
				t.Fatalf("decoding a re-encoded array: %v", err)
			}
			if !sameArray(a, b) {
				t.Fatal("array differs after re-encoding and decoding")
			}
		}
	})
}

// sameArray compares two arrays field by field, floats by their bits so
// that a NaN equals itself.
func sameArray(a, b *array.Array) bool {
	if a.Schema.String() != b.Schema.String() || len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for key, ca := range a.Chunks {
		cb := b.Chunks[key]
		if cb == nil || ca.NDims != cb.NDims || ca.Sorted != cb.Sorted ||
			!reflect.DeepEqual(ca.Coords, cb.Coords) || len(ca.Cols) != len(cb.Cols) {
			return false
		}
		for i := range ca.Cols {
			x, y := &ca.Cols[i], &cb.Cols[i]
			if x.Type != y.Type || !reflect.DeepEqual(x.Ints, y.Ints) ||
				!reflect.DeepEqual(x.Strs, y.Strs) || len(x.Fs) != len(y.Fs) {
				return false
			}
			for j := range x.Fs {
				if math.Float64bits(x.Fs[j]) != math.Float64bits(y.Fs[j]) {
					return false
				}
			}
		}
	}
	return true
}
