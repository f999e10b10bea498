package shufflejoin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/pipeline"
)

// traceDB builds a skewed two-array workload large enough that planning,
// alignment, and comparison all do real work.
func traceDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.CreateArray("A<v:int>[i=1,400,25]")
	b, _ := db.CreateArray("B<w:int>[j=1,400,25]")
	for i := int64(1); i <= 400; i++ {
		// Quadratic residues skew the value distribution so the physical
		// planners have imbalance to fight.
		_ = a.Insert([]int64{i}, (i*i)%31)
		_ = b.Insert([]int64{i}, (i*3)%31)
	}
	return db
}

const traceQuery = "SELECT i, j INTO T<i:int, j:int>[] FROM A JOIN B ON A.v = B.w"

// TestTraceDeterminism: the rendered Chrome trace and metrics must be
// bit-for-bit identical (wall-clock quantities masked) at every Parallelism
// setting, for every join algorithm. This is the observability layer's core
// contract: turning the knob must never change what the trace says happened.
func TestTraceDeterminism(t *testing.T) {
	run := func(algo string, parallelism int) string {
		db := traceDB(t)
		res, err := db.Query(traceQuery,
			WithPlanner("tabu", time.Second),
			WithAlgorithm(algo),
			WithParallelism(parallelism),
		)
		if err != nil {
			t.Fatalf("%s parallelism=%d: %v", algo, parallelism, err)
		}
		r := renderResult(t, res)
		return string(r.chrome) + string(r.metrics)
	}
	for _, algo := range []string{"hash", "merge", "nestedloop"} {
		ref := run(algo, 1)
		if !strings.Contains(ref, `"align"`) || !strings.Contains(ref, `"compare"`) {
			t.Fatalf("%s: render missing phases:\n%s", algo, ref)
		}
		for _, p := range []int{4, runtime.NumCPU()} {
			if got := run(algo, p); got != ref {
				t.Errorf("%s: trace changed at parallelism=%d\n--- parallelism=1\n%s\n--- parallelism=%d\n%s",
					algo, p, ref, p, got)
			}
		}
	}
}

// TestTraceDiagnostics: the headline skew/congestion fields and the
// query's profile must be populated and agree.
func TestTraceDiagnostics(t *testing.T) {
	db := traceDB(t)
	res, err := db.Query(traceQuery, WithPlanner("tabu", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Skew < 1 {
		t.Errorf("Skew = %v, want >= 1 (max/mean)", res.Skew)
	}
	if res.StragglerNode < 0 || res.StragglerNode >= 4 {
		t.Errorf("StragglerNode = %d out of range", res.StragglerNode)
	}
	if res.LockWaitSeconds < 0 {
		t.Errorf("LockWaitSeconds = %v", res.LockWaitSeconds)
	}
	p := res.Profiles()[0]
	if p.Search.TabuRounds == 0 {
		t.Errorf("tabu profile has no search counters: %+v", p.Search)
	}
	if p.Skew != res.Skew || p.StragglerNode != res.StragglerNode || p.Shuffle.LockWaitSeconds != res.LockWaitSeconds {
		t.Errorf("profile skew %v, straggler %d, lock wait %v; result %v, %d, %v",
			p.Skew, p.StragglerNode, p.Shuffle.LockWaitSeconds, res.Skew, res.StragglerNode, res.LockWaitSeconds)
	}
	sum := p.String()
	for _, want := range []string{
		fmt.Sprintf("compare skew %.3f · straggler node %d", res.Skew, res.StragglerNode),
		"lock waits",
		fmt.Sprintf("tabu %d rounds · %d moves", p.Search.TabuRounds, p.Search.TabuMoves),
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("profile missing %q:\n%s", want, sum)
		}
	}
	// The straggler marker points at the named node's row.
	if !strings.Contains(sum, fmt.Sprintf("│    %-5d", res.StragglerNode)) || !strings.Contains(sum, "<- straggler") {
		t.Errorf("profile missing straggler row:\n%s", sum)
	}
}

// TestChromeTraceExport: the exported trace must be well-formed Chrome
// trace-event JSON — every event carries the required keys, complete events
// have durations, and flow arrows come in matched s/f pairs.
func TestChromeTraceExport(t *testing.T) {
	db := traceDB(t)
	res, err := db.Query(traceQuery, WithPlanner("mbh"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	starts, finishes := 0, 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Errorf("bad ts: %v", ev)
			}
		case "s":
			starts++
		case "f":
			finishes++
		case "M":
		default:
			t.Errorf("unexpected phase %q: %v", ph, ev)
		}
	}
	if starts == 0 || starts != finishes {
		t.Errorf("flow events unbalanced: %d starts, %d finishes", starts, finishes)
	}
}

// TestMetricsSnapshot: the DB accumulates the facade counters and the
// per-query metrics fold for every query, so after two queries the
// per-query counters hold both queries' sums.
func TestMetricsSnapshot(t *testing.T) {
	db := traceDB(t)
	if n := db.MetricsSnapshot()["query.count"]; n != 0 {
		t.Fatalf("fresh DB query.count = %v", n)
	}
	res1, err := db.Query(traceQuery, WithPlanner("mbh"))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.MetricsSnapshot()
	if snap["query.count"] != 1 || snap["pipeline.query_count"] != 1 {
		t.Errorf("query.count = %v, pipeline.query_count = %v, want 1", snap["query.count"], snap["pipeline.query_count"])
	}
	if snap["query.matches"] != float64(res1.Matches) || snap["compare.matches"] != float64(res1.Matches) {
		t.Errorf("query.matches = %v, compare.matches = %v, want %d", snap["query.matches"], snap["compare.matches"], res1.Matches)
	}
	if snap["align.transfers"] <= 0 {
		t.Error("query did not fold align.* metrics into the DB registry")
	}

	res2, err := db.Query(traceQuery, WithPlanner("tabu"))
	if err != nil {
		t.Fatal(err)
	}
	snap = db.MetricsSnapshot()
	if snap["query.count"] != 2 || snap["pipeline.query_count"] != 2 || snap["pipeline.modeled_seconds.count"] != 2 {
		t.Errorf("after two queries: query.count = %v, pipeline.query_count = %v, modeled_seconds.count = %v",
			snap["query.count"], snap["pipeline.query_count"], snap["pipeline.modeled_seconds.count"])
	}
	if want := float64(res1.Matches + res2.Matches); snap["query.matches"] != want || snap["compare.matches"] != want {
		t.Errorf("query.matches = %v, compare.matches = %v, want %v", snap["query.matches"], snap["compare.matches"], want)
	}
	if snap["compare.skew"] != res2.Skew {
		t.Errorf("compare.skew = %v, want the last query's %v", snap["compare.skew"], res2.Skew)
	}
}

// TestMultiWayTraceDiagnostics: a multi-way query has one profile per
// step, and its Result sums their per-node compare times into one skew
// and straggler (TestRenderDeterminism pins their render).
func TestMultiWayTraceDiagnostics(t *testing.T) {
	res, err := threeWayDB(t).Query(threeWayQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.StragglerNode < 0 {
		t.Errorf("multi-way StragglerNode = %d", res.StragglerNode)
	}
	if res.Skew < 1 {
		t.Errorf("multi-way Skew = %v", res.Skew)
	}
	profiles := res.Profiles()
	if len(profiles) != 2 {
		t.Fatalf("%d profiles for a three-way query, want 2", len(profiles))
	}
	sum := make([]float64, len(profiles[0].Nodes))
	for _, p := range profiles {
		if p.StragglerNode < 0 || p.Skew < 1 || !strings.Contains(p.String(), "<- straggler") {
			t.Errorf("step profile skew %v straggler %d:\n%s", p.Skew, p.StragglerNode, p)
		}
		for _, n := range p.Nodes {
			sum[n.Node] += n.CompareSeconds
		}
	}
	if skew, straggler := pipeline.SkewOf(sum); skew != res.Skew || straggler != res.StragglerNode {
		t.Errorf("steps' summed skew %v straggler %d, result %v %d", skew, straggler, res.Skew, res.StragglerNode)
	}
}

// BenchmarkQuery runs the trace workload's query end to end, the
// per-query metrics fold included.
func BenchmarkQuery(b *testing.B) {
	db := traceDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(traceQuery, WithPlanner("mbh")); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJoinOrderCarriesEstimates: a three-way query's JoinOrder lists
// its steps in the order they ran, each with the estimate that chose it,
// and a two-way query's is empty.
func TestJoinOrderCarriesEstimates(t *testing.T) {
	res, err := threeWayDB(t).Query(threeWayQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JoinOrder) != 2 || len(res.reports) != 2 {
		t.Fatalf("JoinOrder = %+v over %d steps, want 2", res.JoinOrder, len(res.reports))
	}
	var names []string
	for i, s := range res.JoinOrder {
		names = append(names, s.Left+" ⋈ "+s.Right)
		if s.EstimatedCells <= 0 || s.EstimatedCells == float64(res.reports[i].Matches) {
			t.Errorf("step %d estimate = %v, want a positive estimate, not the %d matches", i, s.EstimatedCells, res.reports[i].Matches)
		}
	}
	if got := strings.Join(names, " ; "); got != res.Plan || got != "Sites ⋈ Sensors ; Readings ⋈ _join1" {
		t.Errorf("JoinOrder %s, Plan %s", got, res.Plan)
	}
	two, err := traceDB(t).Query(traceQuery)
	if err != nil {
		t.Fatal(err)
	}
	if two.JoinOrder != nil {
		t.Errorf("two-way JoinOrder = %+v", two.JoinOrder)
	}
}
