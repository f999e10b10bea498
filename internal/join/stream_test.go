package join

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
)

// streamTuples builds a random tuple side with duplicate keys (so hash
// buckets chain and merge runs span) and stable coords/attrs payloads.
func streamTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{
			Key:    []array.Value{array.IntValue(rng.Int63n(int64(n/4 + 1)))},
			Coords: []int64{int64(i)},
			Attrs:  []array.Value{array.FloatValue(rng.Float64())},
		}
	}
	return ts
}

// emitRecord captures one emitted pair by value, since a stream's
// storage is only valid until it is reused.
type emitRecord struct {
	l, r Tuple
}

func record(out *[]emitRecord) EmitFunc {
	return func(l, r *Tuple) {
		cp := func(t *Tuple) Tuple {
			return Tuple{
				Key:    append([]array.Value(nil), t.Key...),
				Coords: append([]int64(nil), t.Coords...),
				Attrs:  append([]array.Value(nil), t.Attrs...),
			}
		}
		*out = append(*out, emitRecord{cp(l), cp(r)})
	}
}

func copyTuples(ts []Tuple) []Tuple { return append([]Tuple(nil), ts...) }

// sortedRuns cuts ts into consecutive slices of window tuples and sorts
// each with SortTuples, the shape a join unit's side arrives in (one
// sorted slice per node). A window of 1 leaves ts as it is; a window at
// least len(ts) sorts the whole side.
func sortedRuns(ts []Tuple, window int) []Tuple {
	for lo := 0; lo < len(ts); lo += window {
		SortTuples(ts[lo:min(lo+window, len(ts))])
	}
	return ts
}

// TestRunStreamMatchesRun pins RunStream's contract: for every
// algorithm, side-size ordering, and length of the sorted slices a side
// is made of, it emits and counts exactly what Run does over the same
// sides, sorted with SortTuples first for a merge; and a NaN key, which
// leaves a sorted side failing TuplesSorted, still fails the merge as
// Run's does.
func TestRunStreamMatchesRun(t *testing.T) {
	sides := []struct {
		name   string
		nl, nr int
	}{
		{"left-smaller", 60, 90},
		{"right-smaller", 90, 60},
		{"equal", 75, 75},
		{"empty-right", 40, 0},
	}
	for _, alg := range []Algorithm{Hash, Merge, NestedLoop} {
		for _, sz := range sides {
			for _, window := range []int{1, 3, 1000} {
				name := fmt.Sprintf("%v/%s/window=%d", alg, sz.name, window)
				t.Run(name, func(t *testing.T) {
					left := sortedRuns(streamTuples(sz.nl, int64(sz.nl)+1), window)
					right := sortedRuns(streamTuples(sz.nr, int64(sz.nr)+2), window)
					if window < sz.nl && TuplesSorted(left) {
						t.Fatal("fixture: the left side is already sorted")
					}

					refL, refR := copyTuples(left), copyTuples(right)
					if alg == Merge {
						SortTuples(refL)
						SortTuples(refR)
					}
					var wantEmits []emitRecord
					wantStats, err := Run(alg, refL, refR, record(&wantEmits))
					if err != nil {
						t.Fatal(err)
					}

					var gotEmits []emitRecord
					gotStats, err := RunStream(alg,
						&SliceStream{Tuples: copyTuples(left)},
						&SliceStream{Tuples: copyTuples(right)},
						record(&gotEmits))
					if err != nil {
						t.Fatal(err)
					}
					if gotStats != wantStats {
						t.Errorf("Stats = %+v, want %+v", gotStats, wantStats)
					}
					if !reflect.DeepEqual(gotEmits, wantEmits) {
						t.Errorf("emit sequence differs (%d vs %d emits)", len(gotEmits), len(wantEmits))
					}
				})
			}
		}
	}
	t.Run("merge/nan-key", func(t *testing.T) {
		left := streamTuples(40, 3)
		for i := 0; i < len(left); i += 5 {
			left[i].Key = []array.Value{array.FloatValue(math.NaN())}
		}
		right := streamTuples(40, 4)
		sl, sr := copyTuples(left), copyTuples(right)
		SortTuples(sl)
		SortTuples(sr)
		_, want := Run(Merge, sl, sr, nil)
		if want == nil {
			t.Fatal("fixture: Run sorted a NaN key into order")
		}
		_, err := RunStream(Merge, &SliceStream{Tuples: copyTuples(left)}, &SliceStream{Tuples: copyTuples(right)}, nil)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("err = %v, want Run's %v", err, want)
		}
	})
}

// SliceStream adapts an in-memory []Tuple to TupleStream.
type SliceStream struct {
	Tuples []Tuple
}

// Materialize implements TupleStream.
func (s *SliceStream) Materialize() []Tuple { return s.Tuples }
