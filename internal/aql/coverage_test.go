package aql

import (
	"math"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/pipeline"
)

func TestExplainViaAQL(t *testing.T) {
	c := filterCluster(t)
	ex, err := explainText(c, "SELECT A.v FROM A, B WHERE A.i = B.i", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Plans) == 0 || ex.Selectivity <= 0 {
		t.Fatalf("explanation = %+v", ex)
	}
	// Same-shape D:D: cheapest plan is the pure scan merge.
	if got := ex.Plans[0].Describe(); got != "mergeJoin(A, B)" {
		t.Errorf("best plan = %q", got)
	}
	// Filters apply before explaining: a filter that empties one side
	// changes the statistics but must not error.
	ex2, err := explainText(c, "SELECT A.v FROM A, B WHERE A.i = B.i AND A.flag = 99", pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Plans) == 0 {
		t.Error("empty side should still enumerate plans")
	}
	// Errors propagate.
	if _, err := explainText(c, "garbage", pipeline.Options{}); err == nil {
		t.Error("parse error should propagate")
	}
	if _, err := explainText(c, threeWayQuery, pipeline.Options{}); err == nil {
		t.Error("multi-way explain should be rejected")
	}
	if _, err := explainText(c, "SELECT A.v FROM A, Gone WHERE A.i = Gone.i", pipeline.Options{}); err == nil {
		t.Error("unknown array should fail")
	}
}

func TestExpressionNegationAndLiterals(t *testing.T) {
	c := filterCluster(t)
	rep, err := runText(c, `SELECT -A.v + 1.5 AS adj, 2 * A.v AS dbl
		FROM A, B WHERE A.i = B.i AND A.i <= 3`, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 3 {
		t.Fatalf("Matches = %d", rep.Matches)
	}
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		i := coords[0]
		if math.Abs(attrs[0].AsFloat()-(-float64(i)+1.5)) > 1e-12 {
			t.Errorf("adj at %d = %v", i, attrs[0])
		}
		if attrs[1].AsInt() != 2*i {
			t.Errorf("dbl at %d = %v", i, attrs[1])
		}
		return true
	})
}

func TestExprStrings(t *testing.T) {
	q, err := Parse("SELECT -A.v * (B.w + 2.5) AS x, 3, 3.0 FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"(-A.v * (B.w + 2.5))", "3", "3.0"} {
		if s := exprString(&q.Select[i].Expr); s != want {
			t.Errorf("select item %d prints %q, want %q", i, s, want)
		}
	}
}

func TestQueryStringWithInto(t *testing.T) {
	q, err := Parse("SELECT v AS out INTO T<out:int>[i=1,10,5] FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"AS out", "INTO T", "FROM A JOIN B"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFlipComparisonTable(t *testing.T) {
	cases := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
	for in, want := range cases {
		if got := flipComparison(in); got != want {
			t.Errorf("flip(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestExpandSuffix(t *testing.T) {
	cases := map[string]string{"4M": "4000000", "2K": "2000", "1G": "1000000000", "7": "7", "": ""}
	for in, want := range cases {
		if got := expandSuffix(in); got != want {
			t.Errorf("expandSuffix(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestNumberSuffixInPredicateLiteral(t *testing.T) {
	q, err := Parse("SELECT A.v FROM A, B WHERE A.i = B.i AND A.v < 2K")
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Val.AsInt() != 2000 {
		t.Errorf("suffix literal = %v", q.Filters[0].Val)
	}
}
