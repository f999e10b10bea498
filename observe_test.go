package shufflejoin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shufflejoin/internal/pipeline"
)

// obsDB builds a small two-array database for the observability tests.
func obsDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateArray("A<v:int>[i=1,100,10]")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateArray("B<w:int>[i=1,100,10]")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		if err := a.Insert([]int64{i}, i%10); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert([]int64{i}, i%7); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestResultProfiles: a two-way query's Result has one profile, whose
// stages' simulated seconds sum to its makespan and whose rendering
// holds every section.
func TestResultProfiles(t *testing.T) {
	db := obsDB(t)
	res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	profiles := res.Profiles()
	if len(profiles) != 1 {
		t.Fatalf("%d profiles for a two-way query, want 1", len(profiles))
	}
	p := profiles[0]
	var sum float64
	for _, st := range p.Stages {
		sum += st.SimSeconds
	}
	if sum != p.MakespanSeconds {
		t.Errorf("stage sims sum to %v, makespan %v", sum, p.MakespanSeconds)
	}
	if len(p.Stages) != 6 {
		t.Errorf("%d stages, want 6", len(p.Stages))
	}
	s := p.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "stages", "nodes", "candidates"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestResultStringPlanProvenance(t *testing.T) {
	db := obsDB(t)
	res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i")
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSource == "" {
		t.Fatal("two-way query has no PlanSource")
	}
	if want := "plan_source=" + res.PlanSource; !strings.Contains(res.String(), want) {
		t.Errorf("String() missing %q: %s", want, res)
	}
}

func TestQueryLogEndpoints(t *testing.T) {
	db := obsDB(t)
	hub := db.NewObsHub(ObsConfig{})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i",
		WithQueryLog(hub))
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	// The DB registry counts queries and folds each query's metrics,
	// whose histograms exercise the bucket exposition.
	for _, want := range []string{"query_count 1", "_bucket{le="} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var qp struct {
		Total   uint64 `json:"total"`
		Queries []struct {
			Profile *Profile `json:"profile"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(get("/debug/queries")), &qp); err != nil {
		t.Fatal(err)
	}
	if qp.Total != 1 || len(qp.Queries) != 1 {
		t.Fatalf("query log total=%d len=%d, want 1/1", qp.Total, len(qp.Queries))
	}
	logged := qp.Queries[0].Profile
	if logged == nil {
		t.Fatal("log entry has no profile")
	}
	if !strings.Contains(logged.Query, "SELECT") {
		t.Errorf("log entry label %q does not carry the AQL text", logged.Query)
	}
	if logged.Matches != res.Matches {
		t.Errorf("logged matches %d, result %d", logged.Matches, res.Matches)
	}
	if got, want := logged.Fingerprint(), res.Profiles()[0].Fingerprint(); got != want {
		t.Errorf("logged profile is not the result's:\n--- logged ---\n%s\n--- result ---\n%s", got, want)
	}

	var ip struct {
		Running []json.RawMessage `json:"running"`
	}
	if err := json.Unmarshal([]byte(get("/debug/inflight")), &ip); err != nil {
		t.Fatal(err)
	}
	if len(ip.Running) != 0 {
		t.Errorf("finished query still in /debug/inflight")
	}
}

// TestProfileDeterministicViaFacade is the facade-level acceptance
// check: a query's profile fingerprints identically across Parallelism
// 1, 4, and 0.
func TestProfileDeterministicViaFacade(t *testing.T) {
	var base string
	for i, par := range []int{1, 4, 0} {
		db := obsDB(t)
		res, err := db.Query("SELECT A.v, B.w FROM A, B WHERE A.i = B.i",
			WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		fp := res.Profiles()[0].Fingerprint()
		if i == 0 {
			base = fp
		} else if fp != base {
			t.Errorf("profile fingerprint at par=%d diverges:\n--- base ---\n%s\n--- got ---\n%s", par, base, fp)
		}
	}
}

// hotUnitDB builds a dimension join whose first chunk holds most of
// both arrays' cells: one hot join unit, and a straggler node.
func hotUnitDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.CreateArray("A<v:int>[i=1,4000,250]")
	b, _ := db.CreateArray("B<w:int>[i=1,4000,250]")
	for i := int64(1); i <= 4000; i++ {
		if i <= 250 || i%50 == 0 {
			if err := a.Insert([]int64{i}, i%10); err != nil {
				t.Fatal(err)
			}
			if err := b.Insert([]int64{i}, i%7); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestProfileUnchangedByQueryLog: a hub logs a query's profile without
// writing into it. After four queries through WithQueryLog, the last
// one's profile renders the same JSON and String() as the same
// query run with no hub (wall-clock fields zeroed on both sides).
func TestProfileUnchangedByQueryLog(t *testing.T) {
	const q = "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"
	render := func(p *Profile) (string, string) {
		cp := *p
		cp.PlanSeconds, cp.TotalSeconds, cp.WallSeconds = 0, 0, 0
		cp.Stages = append([]pipeline.StageTiming(nil), p.Stages...)
		for i := range cp.Stages {
			cp.Stages[i].WallSeconds = 0
		}
		var js strings.Builder
		if err := cp.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return js.String(), cp.String()
	}

	db := hotUnitDB(t)
	hub := db.NewObsHub(ObsConfig{})
	var logged *Result
	for i := 0; i < 4; i++ {
		res, err := db.Query(q, WithQueryLog(hub), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		logged = res
	}
	if len(logged.Profiles()[0].HotUnits) == 0 {
		t.Fatal("workload has no hot unit")
	}
	plain, err := hotUnitDB(t).Query(q, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, gotText := render(logged.Profiles()[0])
	wantJSON, wantText := render(plain.Profiles()[0])
	if gotJSON != wantJSON {
		t.Errorf("profile JSON after the query log differs:\n--- logged ---\n%s\n--- no hub ---\n%s", gotJSON, wantJSON)
	}
	if gotText != wantText {
		t.Errorf("profile String() after the query log differs:\n--- logged ---\n%s\n--- no hub ---\n%s", gotText, wantText)
	}
}
