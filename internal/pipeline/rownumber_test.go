package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// checkRowNumbers holds a row-numbered output arr, as Compare left it
// before Assemble's SortAll, to its numbering: every chunk is already
// Sorted; chunk c holds rows c·2^20, c·2^20+1, … in row order, and
// the rows are exactly 0…N−1, N = rep.Matches; node n's cells number
// Nodes[n].OutputCells, so they take
// [Σ_{m<n} Nodes[m].OutputCells, +Nodes[n].OutputCells); and every
// chunk equals the reference's, column by column. The reference
// executor numbers each node's cells directly in unit assignment order
// and emit order, one node at a time, so the equality pins the order
// within each node's range.
func checkRowNumbers(t *testing.T, rep, want *pipeline.Report, arr *array.Array) {
	t.Helper()
	var total int64
	for n, node := range rep.Nodes {
		if node.OutputCells != want.Nodes[n].OutputCells {
			t.Errorf("node %d: %d cells, reference %d", n, node.OutputCells, want.Nodes[n].OutputCells)
		}
		total += node.OutputCells
	}
	if total != rep.Matches || total == 0 {
		t.Fatalf("%d cells over the nodes, %d matches", total, rep.Matches)
	}
	var next int64
	for _, key := range arr.SortedKeys() {
		ch := arr.Chunks[key]
		if !ch.Sorted {
			t.Errorf("chunk %d is not Sorted before SortAll", key)
		}
		if first := int64(key) << 20; next != first {
			t.Fatalf("chunk %d starts at row %d, want %d", key, first, next)
		}
		for i, row := range ch.Coords[0] {
			if row != next+int64(i) {
				t.Fatalf("chunk %d row %d is %d, want %d", key, i, row, next+int64(i))
			}
		}
		next += int64(ch.Len())
		w := want.Output.Chunks[key]
		if w == nil || !reflect.DeepEqual(ch.Coords, w.Coords) || !reflect.DeepEqual(ch.Cols, w.Cols) {
			t.Errorf("chunk %d differs from the reference's node-major numbering", key)
		}
	}
	if next != total || len(arr.Chunks) != len(want.Output.Chunks) {
		t.Fatalf("%d chunks hold rows [0, %d), want %d chunks of [0, %d)", len(arr.Chunks), next, len(want.Output.Chunks), total)
	}
}

// TestRowNumbersNodeMajor pins the synthetic row numbering of a
// row-numbered output (checkRowNumbers) on 1, 2, 4 and 32 nodes.
func TestRowNumbersNodeMajor(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 5, 150, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 6, 160, 30)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int, j:int>[]")
	for _, k := range []int{1, 2, 4, 32} {
		want, err := pipeline.RunReference(newCluster(t, k, a.Clone(), b.Clone()), "A", "B", pred, out, pipeline.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("RunReference(k=%d): %v", k, err)
		}
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("k=%d/par=%d", k, par), func(t *testing.T) {
				rep, arr, err := pipeline.AppendedOutput(newCluster(t, k, a.Clone(), b.Clone()), "A", "B", pred, out, pipeline.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				checkRowNumbers(t, rep, want, arr)
			})
		}
	}
}

// TestRowNumbersCrossChunks: a row-numbered output of more than 2^20
// rows spans two destination chunks, and the unit of the hot key, whose
// 1,100 × 1,000 matches are most of them, crosses the boundary between
// them. At Parallelism 1 and 8 the output keeps its numbering
// (checkRowNumbers).
func TestRowNumbersCrossChunks(t *testing.T) {
	side := func(schema string, hot int, seed int64) *array.Array {
		a := array.MustNew(array.MustParseSchema(schema))
		for i := int64(1); i <= int64(hot)+200; i++ {
			v := int64(0) // the hot key
			if i > int64(hot) {
				v = 1 + (i*seed)%100
			}
			a.MustPut([]int64{i}, []array.Value{array.IntValue(v)})
		}
		return a
	}
	a := side("A<v:int>[i=1,2000,100]", 1100, 7)
	b := side("B<w:int>[j=1,2000,100]", 1000, 13)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	out := array.MustParseSchema("T<i:int, j:int>[]")
	want, err := pipeline.RunReference(newCluster(t, 4, a.Clone(), b.Clone()), "A", "B", pred, out, pipeline.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches <= 1<<20 {
		t.Fatalf("%d matches, want more than 2^20", want.Matches)
	}
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			rep, arr, err := pipeline.AppendedOutput(newCluster(t, 4, a.Clone(), b.Clone()), "A", "B", pred, out, pipeline.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if len(arr.Chunks) != 2 {
				t.Fatalf("%d destination chunks, want 2", len(arr.Chunks))
			}
			checkRowNumbers(t, rep, want, arr)
		})
	}
}
