package join

import (
	"testing"

	"shufflejoin/internal/array"
)

func schemaAB(t *testing.T) (*array.Schema, *array.Schema) {
	t.Helper()
	return array.MustParseSchema("A<v:int, u:float>[i=1,100,10, j=1,100,10]"),
		array.MustParseSchema("B<w:int>[x=1,100,10]")
}

func TestResolveTerm(t *testing.T) {
	a, _ := schemaAB(t)
	cases := []struct {
		term  Term
		isDim bool
		index int
	}{
		{Term{Name: "i"}, true, 0},
		{Term{Name: "j"}, true, 1},
		{Term{Name: "v"}, false, 0},
		{Term{Array: "A", Name: "u"}, false, 1},
	}
	for _, c := range cases {
		ref, err := Resolve(a, c.term)
		if err != nil {
			t.Fatalf("Resolve(%v): %v", c.term, err)
		}
		if ref.IsDim != c.isDim || ref.Index != c.index {
			t.Errorf("Resolve(%v) = %+v", c.term, ref)
		}
	}
	if _, err := Resolve(a, Term{Name: "missing"}); err == nil {
		t.Error("unknown term should fail")
	}
	if _, err := Resolve(a, Term{Array: "B", Name: "v"}); err == nil {
		t.Error("wrong qualifier should fail")
	}
}

// TestResolvePredicate binds each pair of the Section 2.2 classes (D:D,
// A:A, A:D and a mixture) to the dimension or attribute it names.
func TestResolvePredicate(t *testing.T) {
	a, b := schemaAB(t)
	dd := Predicate{{Left: Term{Name: "i"}, Right: Term{Name: "x"}}}
	aa := Predicate{{Left: Term{Name: "v"}, Right: Term{Name: "w"}}}
	ad := Predicate{{Left: Term{Name: "i"}, Right: Term{Name: "w"}}}
	mixed := Predicate{dd[0], aa[0]}

	cases := []struct {
		pred        Predicate
		left, right []bool // IsDim per pair
	}{
		{dd, []bool{true}, []bool{true}},
		{aa, []bool{false}, []bool{false}},
		{ad, []bool{true}, []bool{false}},
		{mixed, []bool{true, false}, []bool{true, false}},
	}
	for _, c := range cases {
		rp, err := ResolvePredicate(a, b, c.pred)
		if err != nil {
			t.Fatalf("ResolvePredicate(%v): %v", c.pred, err)
		}
		if len(rp.Left) != len(c.pred) || len(rp.Right) != len(c.pred) {
			t.Fatalf("ResolvePredicate(%v): %d/%d refs for %d pairs", c.pred, len(rp.Left), len(rp.Right), len(c.pred))
		}
		for i := range c.pred {
			if rp.Left[i].IsDim != c.left[i] || rp.Right[i].IsDim != c.right[i] {
				t.Errorf("ResolvePredicate(%v) pair %d: IsDim %v/%v, want %v/%v",
					c.pred, i, rp.Left[i].IsDim, rp.Right[i].IsDim, c.left[i], c.right[i])
			}
		}
	}
	if _, err := ResolvePredicate(a, b, nil); err == nil {
		t.Error("empty predicate should fail")
	}
	if _, err := ResolvePredicate(a, b, Predicate{{Left: Term{Name: "nope"}, Right: Term{Name: "w"}}}); err == nil {
		t.Error("unresolvable term should fail")
	}
}

func TestPredicateStrings(t *testing.T) {
	p := Predicate{
		{Left: Term{Array: "A", Name: "i"}, Right: Term{Name: "x"}},
		{Left: Term{Name: "v"}, Right: Term{Array: "B", Name: "w"}},
	}
	want := "A.i = x AND v = B.w"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestKeyOf(t *testing.T) {
	a, b := schemaAB(t)
	rp, err := ResolvePredicate(a, b, Predicate{
		{Left: Term{Name: "i"}, Right: Term{Name: "x"}},
		{Left: Term{Name: "v"}, Right: Term{Name: "w"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	coords := []int64{7, 9}
	attrs := []array.Value{array.IntValue(42), array.FloatValue(1.5)}
	key := KeyOf(rp.Left, coords, attrs)
	if len(key) != 2 || key[0].AsInt() != 7 || key[1].AsInt() != 42 {
		t.Errorf("left key = %v", key)
	}
	rkey := KeyOf(rp.Right, []int64{3}, []array.Value{array.IntValue(5)})
	if len(rkey) != 2 || rkey[0].AsInt() != 3 || rkey[1].AsInt() != 5 {
		t.Errorf("right key = %v", rkey)
	}
}

func TestAlgorithmString(t *testing.T) {
	if Hash.String() != "hash" || Merge.String() != "merge" || NestedLoop.String() != "nestedloop" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm should still print")
	}
}

func TestHashJoinBuildSideAgreesWithHashJoin(t *testing.T) {
	left := intTuples(1, 2, 2, 3, 9)
	right := intTuples(2, 3, 3, 8)
	want := HashJoin(left, right, nil).Matches
	if got := HashJoinBuildSide(left, right, nil).Matches; got != want {
		t.Errorf("build-left matches = %d, want %d", got, want)
	}
	if got := HashJoinBuildSide(right, left, nil).Matches; got != want {
		t.Errorf("build-right matches = %d, want %d", got, want)
	}
	// Build side is honored exactly.
	st := HashJoinBuildSide(right, left, nil)
	if st.BuildOps != int64(len(right)) || st.ProbeOps != int64(len(left)) {
		t.Errorf("stats = %+v", st)
	}
	var n int
	HashJoinBuildSide(left, right, func(l, r *Tuple) { n++ })
	if int64(n) != want {
		t.Errorf("emitted %d, want %d", n, want)
	}
}
