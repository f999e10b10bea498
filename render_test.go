package shufflejoin

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/batch"
	"shufflejoin/internal/join"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
)

// The telemetry goldens in testdata/render pin what a query's Chrome
// trace, metrics JSON and profile fingerprint say, byte for byte.
// Regenerate them with -update only for a change that means to alter
// what the renders say.
var update = flag.Bool("update", false, "rewrite the telemetry goldens in testdata/render")

// maskChrome rewrites a Chrome trace-event document with its wall-clock
// values replaced by "masked": ts and dur of the coordinator (pid 0), and
// every argument whose key contains "wall". Everything else, simulated
// times included, is kept exactly as rendered.
func maskChrome(t testing.TB, raw []byte) []byte {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string                     `json:"name"`
			Ph   string                     `json:"ph"`
			Pid  int                        `json:"pid"`
			Tid  int                        `json:"tid"`
			Ts   json.RawMessage            `json:"ts"`
			Dur  json.RawMessage            `json:"dur,omitempty"`
			ID   int                        `json:"id,omitempty"`
			BP   string                     `json:"bp,omitempty"`
			Args map[string]json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	masked := json.RawMessage(`"masked"`)
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		if ev.Pid == 0 {
			ev.Ts = masked
			if len(ev.Dur) > 0 {
				ev.Dur = masked
			}
		}
		for k := range ev.Args {
			if strings.Contains(k, "wall") {
				ev.Args[k] = masked
			}
		}
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// render is one query's telemetry as the goldens hold it.
type render struct {
	chrome, metrics []byte // Chrome trace (masked) and metrics JSON
	profile         string // every step's profile Fingerprint, in step order
}

// renderResult renders a query's Chrome trace, the metrics its step
// Reports fold into a fresh registry, and its profiles' fingerprints.
func renderResult(t testing.TB, res *Result) render {
	t.Helper()
	var c, m bytes.Buffer
	if err := res.ChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, rep := range res.reports {
		pipeline.FoldMetrics(reg, rep, false)
	}
	if err := reg.WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	r := render{chrome: maskChrome(t, c.Bytes()), metrics: m.Bytes()}
	for _, p := range res.Profiles() {
		r.profile += p.Fingerprint()
	}
	return r
}

// threeWayDB is the three-array workload of TestMultiWayTraceDiagnostics.
func threeWayDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
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
	return db
}

const threeWayQuery = `SELECT * FROM Readings, Sensors, Sites
			WHERE Readings.sensor = Sensors.sid AND Sensors.site = Sites.code`

// pinnedRenders runs every pinned query at the given parallelism and
// renders each: every physical planner with a plan no wall budget cuts
// short (the ILP budgets are far above their solve times), a greedy
// plan-cache miss and the hit that follows it, a query that fails its
// strict memory budget, and the three-way join.
func pinnedRenders(t *testing.T, par int) map[string]render {
	t.Helper()
	out := map[string]render{}
	query := func(name string, db *DB, q string, opts ...QueryOption) {
		res, err := db.Query(q, append(opts, WithParallelism(par))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = renderResult(t, res)
	}
	query("mbh", traceDB(t), traceQuery, WithPlanner("mbh"))
	query("tabu", traceDB(t), traceQuery, WithPlanner("tabu"))
	query("ilp", traceDB(t), traceQuery, WithPlanner("ilp", time.Minute))
	query("coarse", traceDB(t), traceQuery, WithPlanner("coarse", time.Minute))
	db := traceDB(t)
	pc := NewPlanCache()
	query("greedy-miss", db, traceQuery, WithGreedyPlanning(), WithPlanCache(pc))
	query("greedy-hit", db, traceQuery, WithGreedyPlanning(), WithPlanCache(pc))
	query("three-way", threeWayDB(t), threeWayQuery)

	// A failed query returns no Result, so it runs on the pipeline, whose
	// Report holds everything up to the stage that failed.
	db = traceDB(t)
	cl := db.snapshot([]string{"A", "B"})
	dl, _ := cl.Catalog.Lookup("A")
	dr, _ := cl.Catalog.Lookup("B")
	qc := pipeline.NewQueryContext(cl, dl, dr,
		join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}, nil,
		pipeline.Options{Parallelism: par, Strict: true, MemoryBudget: 4096, QueryLabel: "strict-budget"})
	if err := pipeline.Execute(qc, pipeline.DefaultStages()); !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("strict-budget: err = %v, want batch.ErrBudget", err)
	}
	var c, m bytes.Buffer
	if err := pipeline.WriteChrome(&c, "query", qc.Report); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pipeline.FoldMetrics(reg, qc.Report, true)
	if err := reg.WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	out["strict-budget"] = render{maskChrome(t, c.Bytes()), m.Bytes(), qc.Report.Profile().Fingerprint()}
	return out
}

// TestRenderGoldens: the Chrome trace, metrics JSON and profile
// fingerprint each pinned query renders are byte-identical to the
// goldens.
func TestRenderGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "render")
	for name, r := range pinnedRenders(t, 1) {
		for _, f := range []struct {
			ext string
			got []byte
		}{{".chrome.json", r.chrome}, {".metrics.json", r.metrics}, {".profile.txt", []byte(r.profile)}} {
			path := filepath.Join(dir, name+f.ext)
			if len(f.got) == 0 {
				if _, err := os.Stat(path); err == nil {
					t.Errorf("%s: golden exists but the query renders nothing", path)
				}
				continue
			}
			if *update {
				if err := os.WriteFile(path, f.got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.got, want) {
				t.Errorf("%s: render differs from the golden\n--- got ---\n%s", path, f.got)
			}
		}
	}
}

// TestRenderDeterminism: every pinned query renders identical masked
// bytes and profile fingerprints at Parallelism 1, 4 and 0.
func TestRenderDeterminism(t *testing.T) {
	ref := pinnedRenders(t, 1)
	for _, par := range []int{4, 0} {
		for name, r := range pinnedRenders(t, par) {
			want := ref[name]
			if !bytes.Equal(r.chrome, want.chrome) || !bytes.Equal(r.metrics, want.metrics) || r.profile != want.profile {
				t.Errorf("%s: render at parallelism %d differs from parallelism 1", name, par)
			}
		}
	}
}
