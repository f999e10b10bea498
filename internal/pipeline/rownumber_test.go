package pipeline_test

import (
	"fmt"
	"reflect"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// TestRowNumbersNodeMajor pins the synthetic row numbering of a
// row-numbered output: rows are exactly 0…N−1, node n's cells take
// [Σ_{m<n} Nodes[m].OutputCells, +Nodes[n].OutputCells) in unit
// assignment order and emit order, and every output chunk is already
// Sorted when AppendParts has written it, before Assemble's SortAll. The
// reference executor numbers each node's cells directly in that order,
// one node at a time, so matching it cell for cell pins the order within
// each node's range.
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
		wantCells := cellsOf(want.Output)
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("k=%d/par=%d", k, par), func(t *testing.T) {
				rep, parts, arr, err := pipeline.AppendedOutput(newCluster(t, k, a.Clone(), b.Clone()), "A", "B", pred, out, pipeline.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				for key, ch := range arr.Chunks {
					if !ch.Sorted {
						t.Errorf("chunk %d is not Sorted before SortAll", key)
					}
				}
				// Node n's range ends at ends[n]; each part is one
				// ascending range within one node's, the parts in order.
				ends, total := make([]int64, k), int64(0)
				for n, node := range rep.Nodes {
					if node.OutputCells != want.Nodes[n].OutputCells {
						t.Errorf("node %d: %d cells, reference %d", n, node.OutputCells, want.Nodes[n].OutputCells)
					}
					total += node.OutputCells
					ends[n] = total
				}
				if total != rep.Matches || total == 0 {
					t.Fatalf("%d cells over the nodes, %d matches", total, rep.Matches)
				}
				var next int64
				node := 0
				for p, part := range parts {
					for node < k && ends[node] <= next {
						node++
					}
					for i, row := range part.Coords[0] {
						if row != next+int64(i) {
							t.Fatalf("part %d row %d is %d, want %d", p, i, row, next+int64(i))
						}
					}
					if next += int64(part.Len()); next > ends[node] {
						t.Fatalf("part %d ends at row %d, past node %d's range end %d", p, next, node, ends[node])
					}
				}
				if next != total {
					t.Fatalf("parts hold rows [0, %d), want [0, %d)", next, total)
				}
				arr.SortAll()
				got := cellsOf(arr)
				for i, c := range got {
					if c.coords[0] != int64(i) {
						t.Fatalf("output cell %d has row %d", i, c.coords[0])
					}
				}
				if !reflect.DeepEqual(got, wantCells) {
					t.Errorf("output cells differ from the reference's node-major numbering")
				}
			})
		}
	}
}
