package aql

import (
	"reflect"
	"testing"
)

// FuzzParse checks the parser's two promises on arbitrary input: Parse
// never panics, and a query it accepts prints (String) to text that
// parses back to the same query, so parse → String → parse is a
// fixpoint. `go test -fuzz FuzzParse ./internal/aql` explores further.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// aql_test.go
		"SELECT * INTO C<i:int, j:int>[v=1,128M,4M] FROM A, B WHERE A.v = B.w",
		"SELECT A.v1 - B.v1, A.v2 - B.v2 FROM A, B WHERE A.i = B.i AND A.j = B.j;",
		`SELECT (Band2.reflectance - Band1.reflectance)
		/ (Band2.reflectance + Band1.reflectance)
		FROM Band1, Band2
		WHERE Band1.time = Band2.time
		AND Band1.longitude = Band2.longitude
		AND Band1.latitude = Band2.latitude;`,
		"SELECT * FROM A JOIN B ON B.w = A.v",
		"SELECT A.v AS reading FROM A, B WHERE A.i = B.j",
		"SELECT FROM A, B WHERE A.i = B.i",
		"SELECT * FROM A, B WHERE A.i = B.i junk",
		"SELECT * INTO C<v:int> FROM",
		"SELECT 'unclosed FROM A, B WHERE A.i=B.i",
		"SELECT A.v, B.w INTO T<only:int>[i=1,100,10] FROM A, B WHERE A.v = B.w",
		"SELECT i, j INTO T<i:int, j:int>[] FROM a JOIN b ON a.v = b.w",
		// filter_test.go
		"SELECT * FROM A, B WHERE A.i = B.i AND A.flag = 2 AND B.score > 5.0",
		"SELECT * FROM A, B WHERE A.i = B.i AND 10 <= A.v",
		"SELECT * FROM A, B WHERE A.v ~ 3",
		"SELECT A.v FROM A, B WHERE A.i = B.i AND A.i <= 10",
		"SELECT A.v FROM A, B WHERE A.i = B.i AND nope = 1",
		`SELECT * FROM Clicks, Users, Regions
		WHERE Clicks.user = Users.id AND Users.region = Regions.id AND Regions.name = 'west'`,
		// multi_test.go: three-array queries with a SELECT expression, an
		// alias and INTO, which execute.
		`SELECT pop * 2 + who AS score, -t / pop, rid FROM Clicks, Users, Regions
		WHERE Clicks.who = Users.uid AND Users.region = Regions.rid`,
		"SELECT Clicks.t AS ts, pop FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		"SELECT pop - who, t INTO T<d:int, ts:int>[t=1,400,100] FROM Clicks, Users, Regions WHERE Clicks.who = Users.uid AND Users.region = Regions.rid",
		// Inputs whose printed form used to parse differently: WHERE
		// filters and FROM arrays past the second were dropped, a
		// same-array pair flipped on every reparse, an integer beyond
		// int64 printed as MinInt64, and floats printed without a point
		// or in exponent form.
		"SELECT * FROM A, B WHERE A.i = A.j",
		"SELECT 99999999999999999999 FROM A, B WHERE A.i = B.i",
		"SELECT 2.0 FROM A, B WHERE A.i = B.i",
		"SELECT 100000000000000000000000.5 FROM A, B WHERE A.i = B.i",
		// SELECT literals the WHERE reader rejects or must keep exact.
		"SELECT A.v + 9007199254740993 FROM A, B WHERE A.i = B.i",
		"SELECT A.v + 1.5k FROM A, B WHERE A.i = B.i",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, text, err)
		}
		if again := back.String(); again != text {
			t.Fatalf("Parse(%q) printed %q, which prints back as %q", src, text, again)
		}
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("Parse(%q) printed %q, which parses to a different query:\n got %#v\nwant %#v", src, text, back, q)
		}
	})
}
