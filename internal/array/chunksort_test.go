package array

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableSort is the oracle for Chunk.Sort: the stable sort through
// sort.Interface that Sort replaced, whose order Sort must reproduce cell
// for cell.
func stableSort(ch *Chunk) {
	if ch.Sorted || ch.NDims == 0 {
		ch.Sorted = true
		return
	}
	sort.Stable(&chunkSorter{ch: ch})
	ch.Sorted = true
}

type chunkSorter struct {
	ch *Chunk
	a  []int64
	b  []int64
}

func (s *chunkSorter) Len() int { return s.ch.Len() }

func (s *chunkSorter) Less(i, j int) bool {
	s.a = s.ch.CoordsAt(i, s.a)
	s.b = s.ch.CoordsAt(j, s.b)
	return CompareCoords(s.a, s.b) < 0
}

func (s *chunkSorter) Swap(i, j int) {
	ch := s.ch
	for d := 0; d < ch.NDims; d++ {
		ch.Coords[d][i], ch.Coords[d][j] = ch.Coords[d][j], ch.Coords[d][i]
	}
	for c := range ch.Cols {
		ch.Cols[c].swap(i, j)
	}
}

// swap exchanges two rows of the column.
func (c *Column) swap(i, j int) {
	switch c.Type {
	case TypeInt64:
		c.Ints[i], c.Ints[j] = c.Ints[j], c.Ints[i]
	case TypeFloat64:
		c.Fs[i], c.Fs[j] = c.Fs[j], c.Fs[i]
	case TypeString:
		c.Strs[i], c.Strs[j] = c.Strs[j], c.Strs[i]
	}
}

// sameChunk reports the first difference between two chunks' cells, in
// row order, and their Sorted flags, or "" when there is none.
func sameChunk(got, want *Chunk) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d cells, want %d", got.Len(), want.Len())
	}
	for d := range want.Coords {
		if !slices.Equal(got.Coords[d], want.Coords[d]) {
			return fmt.Sprintf("coordinate column %d differs", d)
		}
	}
	for i := range want.Cols {
		g, w := &got.Cols[i], &want.Cols[i]
		if g.Type != w.Type || !slices.Equal(g.Ints, w.Ints) || !slices.Equal(g.Fs, w.Fs) || !slices.Equal(g.Strs, w.Strs) {
			return fmt.Sprintf("attribute column %d differs", i)
		}
	}
	if got.Sorted != want.Sorted {
		return fmt.Sprintf("Sorted = %v, want %v", got.Sorted, want.Sorted)
	}
	return ""
}

var testAttrTypes = []ScalarType{TypeInt64, TypeFloat64, TypeString}

// appendTestCell appends a cell whose attributes all name its insertion
// index, so that any reordering of equal coordinates shows.
func appendTestCell(ch *Chunk, coords []int64, id int) {
	ch.AppendCell(coords, []Value{IntValue(int64(id)), FloatValue(float64(id) / 2), StringValue(fmt.Sprint("c", id))})
}

// sortCase builds an unsorted chunk of one shape: nd dimensions, n cells.
func sortCase(shape string, nd, n int, rng *rand.Rand) *Chunk {
	ch := NewChunk(0, nd, testAttrTypes)
	coords := make([]int64, nd)
	span := int64(1 + n/4) // small enough for duplicate coordinates
	switch shape {
	case "random":
		for i := 0; i < n; i++ {
			for d := range coords {
				coords[d] = rng.Int63n(span)
			}
			appendTestCell(ch, coords, i)
		}
	case "sorted", "reversed":
		for i := 0; i < n; i++ {
			v := int64(i / 3) // runs of equal coordinates
			if shape == "reversed" {
				v = int64((n - i) / 3)
			}
			for d := range coords {
				coords[d] = v >> (2 * (nd - 1 - d))
			}
			appendTestCell(ch, coords, i)
		}
	default: // "runs=K": K ascending runs over one value range, ties across runs
		var k int
		fmt.Sscanf(shape, "runs=%d", &k)
		id := 0
		for r := 0; r < k; r++ {
			m := n / k
			if r < n%k {
				m++
			}
			v := make([]int64, m)
			for i := range v {
				v[i] = rng.Int63n(span)
			}
			slices.Sort(v)
			for _, x := range v {
				for d := range coords {
					coords[d] = x >> (2 * (nd - 1 - d))
				}
				appendTestCell(ch, coords, id)
				id++
			}
		}
	}
	ch.Sorted = false
	return ch
}

// TestChunkSortMatchesStable: Sort leaves every chunk shape exactly as the
// stable sort does, cell for cell, whether it merges runs or sorts a
// permutation.
func TestChunkSortMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []string{"random", "sorted", "reversed", "runs=2", "runs=4", "runs=8", "runs=9", "runs=40"}
	for _, nd := range []int{0, 1, 3} {
		for _, shape := range shapes {
			for _, n := range []int{0, 1, 2, 3, 17, 100, 1000, 5000} {
				ch := sortCase(shape, nd, n, rng)
				want := ch.Clone()
				stableSort(want)
				ch.Sort()
				if diff := sameChunk(ch, want); diff != "" {
					t.Errorf("%d dims, %s, n=%d: %s", nd, shape, n, diff)
				}
			}
		}
	}
}

// TestAppendColumnsMatchesAppendCell: any sequence of column appends, of
// whole chunks or selected rows, leaves the same columns and the same
// Sorted flag as appending the same cells one by one, including where an
// append's first cell meets the chunk's last.
func TestAppendColumnsMatchesAppendCell(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nd := range []int{0, 1, 2} {
		for trial := 0; trial < 200; trial++ {
			got := NewChunk(0, nd, testAttrTypes)
			want := NewChunk(0, nd, testAttrTypes)
			next, id := int64(0), 0
			for step := 0; step < 1+rng.Intn(5); step++ {
				// A source mostly ascending from where the last append
				// ended, sometimes stepping back or repeating a cell.
				src := NewChunk(0, nd, testAttrTypes)
				coords := make([]int64, nd)
				for i := rng.Intn(6); i > 0; i-- {
					switch rng.Intn(8) {
					case 0:
						next -= rng.Int63n(3)
					case 1:
					default:
						next += rng.Int63n(3)
					}
					for d := range coords {
						coords[d] = next >> (2 * (nd - 1 - d))
					}
					appendTestCell(src, coords, id)
					id++
				}
				var rows []int32
				if rng.Intn(2) == 0 && src.Len() > 0 {
					rows = make([]int32, rng.Intn(src.Len()+2))
					for i := range rows {
						rows[i] = int32(rng.Intn(src.Len()))
					}
				}
				got.AppendColumns(src, rows)
				if rows == nil {
					for r := 0; r < src.Len(); r++ {
						c, a := src.Cell(r)
						want.AppendCell(c, a)
					}
				} else {
					for _, r := range rows {
						c, a := src.Cell(int(r))
						want.AppendCell(c, a)
					}
				}
				if diff := sameChunk(got, want); diff != "" {
					t.Fatalf("%d dims, trial %d, append %d: %s", nd, trial, step, diff)
				}
			}
		}
	}
}
