package shufflejoin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
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

// TestTraceDeterminism: the captured span tree and metric registry must be
// bit-for-bit identical (wall-clock quantities masked) at every Parallelism
// setting, for every join algorithm. This is the observability layer's core
// contract: turning the knob must never change what the trace says happened.
func TestTraceDeterminism(t *testing.T) {
	run := func(algo string, parallelism int) string {
		db := traceDB(t)
		res, err := db.Query(traceQuery,
			WithPlanner("tabu", time.Second),
			WithAlgorithm(algo),
			WithTrace(),
			WithParallelism(parallelism),
		)
		if err != nil {
			t.Fatalf("%s parallelism=%d: %v", algo, parallelism, err)
		}
		return res.traceFingerprint()
	}
	for _, algo := range []string{"hash", "merge", "nestedloop"} {
		ref := run(algo, 1)
		if !strings.Contains(ref, "align") || !strings.Contains(ref, "compare") {
			t.Fatalf("%s: fingerprint missing phases:\n%s", algo, ref)
		}
		for _, p := range []int{4, runtime.NumCPU()} {
			if got := run(algo, p); got != ref {
				t.Errorf("%s: trace changed at parallelism=%d\n--- parallelism=1\n%s\n--- parallelism=%d\n%s",
					algo, p, ref, p, got)
			}
		}
	}
}

// TestTraceDiagnostics: the headline skew/congestion fields and TraceSummary
// must be populated and internally consistent.
func TestTraceDiagnostics(t *testing.T) {
	db := traceDB(t)
	res, err := db.Query(traceQuery, WithPlanner("tabu", time.Second), WithTrace())
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
	sum := res.TraceSummary()
	for _, want := range []string{
		"compare skew",
		fmt.Sprintf("straggler: node %d", res.StragglerNode),
		"lock wait",
		"metrics",
		"align.makespan_seconds",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("TraceSummary missing %q:\n%s", want, sum)
		}
	}
	// The straggler marker points at the named node's row.
	if !strings.Contains(sum, "<- straggler") {
		t.Errorf("TraceSummary missing straggler marker:\n%s", sum)
	}
}

// TestChromeTraceExport: the exported trace must be well-formed Chrome
// trace-event JSON — every event carries the required keys, complete events
// have durations, and flow arrows come in matched s/f pairs.
func TestChromeTraceExport(t *testing.T) {
	db := traceDB(t)
	res, err := db.Query(traceQuery, WithPlanner("mbh"), WithTrace())
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

	// Exports demand tracing: an untraced query must refuse, not panic.
	plain, err := db.Query(traceQuery, WithPlanner("mbh"))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ChromeTrace(&buf); err == nil {
		t.Error("ChromeTrace on untraced result should error")
	}
	if err := plain.MetricsJSON(&buf); err == nil {
		t.Error("MetricsJSON on untraced result should error")
	}
}

// TestMetricsSnapshot: the DB accumulates per-query facade counters for every
// query, and folds the full registry of traced ones.
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
	if snap["query.count"] != 1 {
		t.Errorf("query.count = %v, want 1", snap["query.count"])
	}
	if snap["query.matches"] != float64(res1.Matches) {
		t.Errorf("query.matches = %v, want %d", snap["query.matches"], res1.Matches)
	}
	if _, ok := snap["align.transfers"]; ok {
		t.Error("untraced query leaked per-phase metrics into the DB registry")
	}

	res2, err := db.Query(traceQuery, WithPlanner("mbh"), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	snap = db.MetricsSnapshot()
	if snap["query.count"] != 2 {
		t.Errorf("query.count = %v, want 2", snap["query.count"])
	}
	if snap["query.matches"] != float64(res1.Matches+res2.Matches) {
		t.Errorf("query.matches = %v, want %d", snap["query.matches"], res1.Matches+res2.Matches)
	}
	if snap["align.transfers"] <= 0 {
		t.Error("traced query did not fold align.* metrics into the DB registry")
	}
	if snap["compare.matches"] != float64(res2.Matches) {
		t.Errorf("compare.matches = %v, want %d (traced query only)", snap["compare.matches"], res2.Matches)
	}
}

// TestMultiWayTraceDiagnostics: multi-way queries aggregate per-node
// diagnostics across steps and still fingerprint deterministically.
func TestMultiWayTraceDiagnostics(t *testing.T) {
	run := func(parallelism int) (*Result, string) {
		db, _ := Open(3)
		sensors, _ := db.CreateArray("Sensors<site:int>[sid=1,40,10]")
		readings, _ := db.CreateArray("Readings<sensor:int, value:float>[t=1,200,25]")
		sites, _ := db.CreateArray("Sites<code:int, elevation:int>[s=1,8,4]")
		for sid := int64(1); sid <= 40; sid++ {
			_ = sensors.Insert([]int64{sid}, sid%8)
		}
		for ts := int64(1); ts <= 200; ts++ {
			_ = readings.Insert([]int64{ts}, ts%40+1, float64(ts)/2)
		}
		for s := int64(1); s <= 8; s++ {
			_ = sites.Insert([]int64{s}, s%8, s*100)
		}
		res, err := db.Query(`SELECT * FROM Readings, Sensors, Sites
			WHERE Readings.sensor = Sensors.sid AND Sensors.site = Sites.code`,
			WithTrace(), WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		return res, res.traceFingerprint()
	}
	res, ref := run(1)
	if res.StragglerNode < 0 {
		t.Errorf("multi-way StragglerNode = %d", res.StragglerNode)
	}
	if res.Skew < 1 {
		t.Errorf("multi-way Skew = %v", res.Skew)
	}
	if !strings.Contains(res.TraceSummary(), "straggler") {
		t.Error("multi-way TraceSummary missing straggler")
	}
	if _, got := run(4); got != ref {
		t.Error("multi-way trace changed with parallelism")
	}
}

// benchWorkload runs one traced-or-not query and returns its wall time.
func benchQuery(b *testing.B, traced bool) {
	db := traceDB(b)
	opts := []QueryOption{WithPlanner("mbh")}
	if traced {
		opts = append(opts, WithTrace())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(traceQuery, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryUntraced(b *testing.B) { benchQuery(b, false) }
func BenchmarkQueryTraced(b *testing.B)   { benchQuery(b, true) }

// TestTraceOverheadBudget is the regression tripwire for tracing's cost.
// An untraced query pays one nil check (foldTrace returns at once); a
// traced one builds a few hundred spans and counter updates from its
// finished Report, which must stay in the noise. Wall-clock comparisons
// are too noisy for ordinary CI runners, so the check only runs when
// OBS_OVERHEAD_CHECK=1 (a step of CI's test job sets it).
func TestTraceOverheadBudget(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the overhead budget check")
	}
	db := traceDB(t)
	// Warm up caches and the planner paths.
	for i := 0; i < 3; i++ {
		if _, err := db.Query(traceQuery, WithPlanner("mbh")); err != nil {
			t.Fatal(err)
		}
	}
	median := func(opts ...QueryOption) float64 {
		const rounds = 9
		times := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if _, err := db.Query(traceQuery, opts...); err != nil {
				t.Fatal(err)
			}
			times = append(times, time.Since(start).Seconds())
		}
		sort.Float64s(times)
		return times[len(times)/2]
	}
	off := median(WithPlanner("mbh"))
	on := median(WithPlanner("mbh"), WithTrace())
	t.Logf("untraced median %.4fs, traced median %.4fs, enabled overhead %+.2f%%",
		off, on, (on/off-1)*100)
	if on > off*1.10 {
		t.Errorf("enabled tracing overhead %.1f%% exceeds 10%% ceiling", (on/off-1)*100)
	}
}
