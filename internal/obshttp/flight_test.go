package obshttp_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/obshttp"
	"shufflejoin/internal/pipeline"
)

func TestStatusEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	hub := obshttp.NewHub(obshttp.Config{
		Registry: reg,
		Status: obshttp.StatusInfo{
			Component: "test-harness",
			Details:   map[string]string{"nodes": "4"},
		},
	})
	runQuery(t, hub, reg, "status-q")
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	code, body, ct := get(t, srv, "/debug/status")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Fatalf("status = %d, content-type = %q", code, ct)
	}
	var p struct {
		Component     string            `json:"component"`
		Details       map[string]string `json:"details"`
		GoVersion     string            `json:"go_version"`
		GOMAXPROCS    int               `json:"gomaxprocs"`
		UptimeSeconds float64           `json:"uptime_seconds"`
		QueriesTotal  uint64            `json:"queries_total"`
		Flight        flight.Stats      `json:"flight"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("status payload: %v", err)
	}
	if p.Component != "test-harness" || p.Details["nodes"] != "4" {
		t.Errorf("status info = %+v", p)
	}
	if p.GoVersion == "" || p.GOMAXPROCS < 1 || p.UptimeSeconds < 0 {
		t.Errorf("runtime fields = %+v", p)
	}
	if p.QueriesTotal != 1 {
		t.Errorf("queries_total = %d, want 1", p.QueriesTotal)
	}
	if p.Flight.Capacity == 0 || p.Flight.Recorded == 0 {
		t.Errorf("flight stats = %+v (default recorder should have recorded the query)", p.Flight)
	}
}

func TestFlightEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	hub := obshttp.NewHub(obshttp.Config{Registry: reg})

	// The query records into flight.Default, the ring the hub serves.
	mark := flight.Default.Stats().Recorded
	runQuery(t, hub, reg, "flight-q")

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	code, body, ct := get(t, srv, "/debug/flight")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Fatalf("status = %d, content-type = %q", code, ct)
	}
	var p struct {
		Capacity int `json:"capacity"`
		Events   []struct {
			Seq  uint64         `json:"seq"`
			Type string         `json:"type"`
			Args map[string]any `json:"args"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("flight payload: %v", err)
	}
	if p.Capacity != flight.DefaultCapacity || len(p.Events) == 0 {
		t.Fatalf("payload = capacity %d, %d events", p.Capacity, len(p.Events))
	}
	types := map[string]bool{}
	for _, e := range p.Events {
		if e.Seq >= mark {
			types[e.Type] = true
		}
	}
	for _, want := range []string{"query-start", "stage-start", "stage-finish", "query-finish"} {
		if !types[want] {
			t.Errorf("no %s event in /debug/flight dump (have %v)", want, types)
		}
	}

	// ?limit bounds the dump; malformed limits are a 400.
	code, body, _ = get(t, srv, "/debug/flight?limit=2")
	if code != 200 {
		t.Fatalf("limited dump status = %d", code)
	}
	var limited struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &limited); err != nil || len(limited.Events) != 2 {
		t.Errorf("limit=2 returned %d events (%v)", len(limited.Events), err)
	}
	if code, _, _ := get(t, srv, "/debug/flight?limit=banana"); code != 400 {
		t.Errorf("malformed limit status = %d, want 400", code)
	}
	if code, _, _ := get(t, srv, "/debug/flight?limit=-3"); code != 400 {
		t.Errorf("negative limit status = %d, want 400", code)
	}
}

// syntheticFinish pushes one synthetic finished query through the hub's
// QueryFinished hook.
func syntheticFinish(hub *obshttp.Hub, label string) {
	p := &pipeline.Progress{Label: label, Start: time.Now()}
	hub.QueryStarted(p)
	hub.QueryFinished(p, &pipeline.Report{Query: label, StragglerNode: -1}, nil)
}

// TestQueryParamHardening: malformed query parameters are a 400, not a
// silent ignore, and every handler declares a Content-Type.
func TestQueryParamHardening(t *testing.T) {
	reg := obs.NewRegistry()
	hub := obshttp.NewHub(obshttp.Config{Registry: reg})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/debug/queries?slow=banana", 400},
		{"/debug/queries?slow=2", 400},
		{"/debug/queries?limit=banana", 400},
		{"/debug/queries?limit=-1", 400},
		{"/debug/queries?slow=1&limit=10", 200},
		{"/debug/queries?slow=0", 200},
		{"/debug/queries", 200},
		{"/debug/flight?limit=banana", 400},
		{"/debug/flight", 200},
		{"/debug/status", 200},
	} {
		code, _, ct := get(t, srv, tc.path)
		if code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.want)
		}
		if ct == "" {
			t.Errorf("GET %s: no Content-Type header", tc.path)
		}
	}
}

// TestPprofMounted: the standard profiles are reachable through the hub.
func TestPprofMounted(t *testing.T) {
	hub := obshttp.NewHub(obshttp.Config{Registry: obs.NewRegistry()})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	if code, body, _ := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index status = %d", code)
	}
	if code, _, _ := get(t, srv, "/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("goroutine profile status = %d", code)
	}
}

// TestQueriesLimitParam: a well-formed limit truncates the newest-first
// log.
func TestQueriesLimitParam(t *testing.T) {
	reg := obs.NewRegistry()
	hub := obshttp.NewHub(obshttp.Config{Registry: reg})
	for i := 0; i < 5; i++ {
		syntheticFinish(hub, fmt.Sprintf("q-%d", i))
	}
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	_, body, _ := get(t, srv, "/debug/queries?limit=2")
	var p struct {
		Total   uint64 `json:"total"`
		Queries []struct {
			Profile struct {
				Query string `json:"query"`
			} `json:"profile"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p.Total != 5 || len(p.Queries) != 2 {
		t.Fatalf("total %d, returned %d, want 5/2", p.Total, len(p.Queries))
	}
	if p.Queries[0].Profile.Query != "q-4" || p.Queries[1].Profile.Query != "q-3" {
		t.Errorf("limited queries = %+v, want newest first", p.Queries)
	}
}

// TestPlantedStragglerInQueryLog plants a straggler (node 2 compares 10x
// longer than its peers) and a hot join unit in synthetic reports. Each
// /debug/queries entry names them from its own report, and an entry does
// not change with the queries that came before it.
func TestPlantedStragglerInQueryLog(t *testing.T) {
	hub := obshttp.NewHub(obshttp.Config{Registry: obs.NewRegistry()})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	const queries = 4
	for i := 0; i < queries; i++ {
		label := fmt.Sprintf("planted-%d", i)
		rep := &pipeline.Report{
			Query:           label,
			NodeCompareTime: []float64{1, 1, 10, 1},
			UnitCells:       []int64{10, 10, 9000, 10, 10, 10, 10, 10},
		}
		rep.Skew, rep.StragglerNode = pipeline.SkewOf(rep.NodeCompareTime)
		p := &pipeline.Progress{Label: label, Start: time.Now()}
		hub.QueryStarted(p)
		hub.QueryFinished(p, rep, nil)
	}

	code, body, _ := get(t, srv, "/debug/queries")
	if code != 200 {
		t.Fatalf("/debug/queries status %d", code)
	}
	var qp struct {
		Queries []obshttp.Entry `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &qp); err != nil {
		t.Fatalf("/debug/queries JSON: %v\n%s", err, body)
	}
	if len(qp.Queries) != queries {
		t.Fatalf("query log holds %d entries, want %d", len(qp.Queries), queries)
	}
	var first string
	for _, e := range qp.Queries {
		p := e.Profile
		if p == nil {
			t.Fatalf("entry %d carries no profile", e.Seq)
		}
		if p.StragglerNode != 2 || p.Skew != 10/3.25 {
			t.Errorf("%s: straggler %d skew %v, want node 2 skew %v", p.Query, p.StragglerNode, p.Skew, 10/3.25)
		}
		if len(p.HotUnits) != 1 || p.HotUnits[0].Unit != 2 || p.HotUnits[0].Cells != 9000 {
			t.Errorf("%s: hot units %+v, want unit 2 with 9000 cells", p.Query, p.HotUnits)
		}
		s := p.String()
		if !strings.Contains(s, "straggler node 2") {
			t.Errorf("%s: rendering does not name the straggler:\n%s", p.Query, s)
		}
		s = strings.Replace(s, p.Query, "", 1)
		if first == "" {
			first = s
		} else if s != first {
			t.Errorf("%s renders differently from the first planted query:\n--- first ---\n%s\n--- got ---\n%s", p.Query, first, s)
		}
	}
}
