package obshttp_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/obshttp"
	"shufflejoin/internal/pipeline"
)

func buildArray(schema string, seed int64, n int, domain int64) *array.Array {
	s := array.MustParseSchema(schema)
	a := array.MustNew(s)
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	for len(used) < n {
		c := rng.Int63n(s.Dims[0].Extent()) + s.Dims[0].Start
		if used[c] {
			continue
		}
		used[c] = true
		a.MustPut([]int64{c}, []array.Value{array.IntValue(rng.Int63n(domain))})
	}
	a.SortAll()
	return a
}

// runQuery executes one join with the hub attached as query hooks,
// folding its metrics into reg.
func runQuery(t *testing.T, hub *obshttp.Hub, reg *obs.Registry, label string) *pipeline.Report {
	t.Helper()
	a := buildArray("A<v:int>[i=1,300,30]", 31, 160, 30)
	b := buildArray("B<w:int>[j=1,300,30]", 32, 150, 30)
	out := array.MustParseSchema("T<i:int, j:int>[v=0,29,6]")
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := cluster.MustNew(4)
	c.Load(a, cluster.RoundRobin)
	c.Load(b, cluster.RoundRobin)
	opt := pipeline.Options{
		Selectivity: 0.5,
		Hooks:       hub,
		QueryLabel:  label,
	}
	rep, err := pipeline.Run(c, "A", "B", pred, out, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		pipeline.FoldMetrics(reg, rep, false)
	}
	return rep
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// TestHubEndToEnd drives a real query through a hub and checks all three
// endpoints: /metrics serves the registry in Prometheus format,
// /debug/queries carries the profiled entry, and /debug/inflight is
// empty once the query finished.
func TestHubEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	hub := obshttp.NewHub(obshttp.Config{Registry: reg})
	rep := runQuery(t, hub, reg, "A join B on v=w")

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	code, body, ctype := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{"# TYPE", "_bucket{le=", "pipeline_query_count 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, ctype = get(t, srv, "/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries status %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("/debug/queries content type %q", ctype)
	}
	var qp struct {
		Total   uint64          `json:"total"`
		Queries []obshttp.Entry `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &qp); err != nil {
		t.Fatalf("/debug/queries JSON: %v\n%s", err, body)
	}
	if qp.Total != 1 || len(qp.Queries) != 1 {
		t.Fatalf("query log total=%d len=%d, want 1/1", qp.Total, len(qp.Queries))
	}
	p := qp.Queries[0].Profile
	if p == nil {
		t.Fatal("log entry carries no profile")
	}
	if p.Query != "A join B on v=w" {
		t.Errorf("logged query label %q", p.Query)
	}
	if p.Matches != rep.Matches {
		t.Errorf("logged matches %d, report %d", p.Matches, rep.Matches)
	}
	if len(p.Stages) != 6 {
		t.Errorf("logged profile has %d stages, want 6", len(p.Stages))
	}
	if p.PlanSource == "" {
		t.Error("log entry missing plan source")
	}

	code, body, _ = get(t, srv, "/debug/inflight")
	if code != http.StatusOK {
		t.Fatalf("/debug/inflight status %d", code)
	}
	var ip struct {
		Running []json.RawMessage `json:"running"`
	}
	if err := json.Unmarshal([]byte(body), &ip); err != nil {
		t.Fatalf("/debug/inflight JSON: %v\n%s", err, body)
	}
	if len(ip.Running) != 0 {
		t.Errorf("finished query still in flight: %s", body)
	}
}

// TestInflightVisibleMidQuery registers progress via the hook interface
// directly and checks the /debug/inflight snapshot while "running".
func TestInflightVisibleMidQuery(t *testing.T) {
	hub := obshttp.NewHub(obshttp.Config{})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	// Drive the hooks by hand: a query that started but has not finished.
	var hooks pipeline.QueryHooks = hub
	prog := &pipeline.Progress{Label: "slow query", Start: time.Now()}
	hooks.QueryStarted(prog)

	_, body, _ := get(t, srv, "/debug/inflight")
	var ip struct {
		Running []struct {
			ID    uint64 `json:"id"`
			Query string `json:"query"`
			Done  bool   `json:"done"`
		} `json:"running"`
	}
	if err := json.Unmarshal([]byte(body), &ip); err != nil {
		t.Fatalf("/debug/inflight JSON: %v\n%s", err, body)
	}
	if len(ip.Running) != 1 || ip.Running[0].Query != "slow query" || ip.Running[0].Done {
		t.Fatalf("in-flight snapshot wrong: %s", body)
	}

	hooks.QueryFinished(prog, nil, nil)
	_, body, _ = get(t, srv, "/debug/inflight")
	if err := json.Unmarshal([]byte(body), &ip); err != nil {
		t.Fatal(err)
	}
	if len(ip.Running) != 0 {
		t.Fatalf("query not removed from in-flight set: %s", body)
	}
}

// TestQueryLogRingEviction fills the log past its capacity of 128 and
// checks that the oldest entries are evicted while Total keeps counting.
func TestQueryLogRingEviction(t *testing.T) {
	const capacity = 128
	hub := obshttp.NewHub(obshttp.Config{})
	var hooks pipeline.QueryHooks = hub
	for i := 0; i < capacity+2; i++ {
		p := &pipeline.Progress{Label: fmt.Sprintf("q%d", i), Start: time.Now()}
		hooks.QueryStarted(p)
		hooks.QueryFinished(p, &pipeline.Report{Query: p.Label}, nil)
	}
	entries := hub.Log().Entries()
	if len(entries) != capacity {
		t.Fatalf("retained %d entries, want %d", len(entries), capacity)
	}
	if got := hub.Log().Total(); got != capacity+2 {
		t.Errorf("total %d, want %d", got, capacity+2)
	}
	for i, e := range entries {
		if want := fmt.Sprintf("q%d", i+2); e.Profile.Query != want {
			t.Fatalf("entry %d is %s, want %s: oldest first, q0 and q1 evicted", i, e.Profile.Query, want)
		}
	}
}

// TestSlowQueryMarking checks the slow threshold: an entry whose wall
// time reaches SlowQuery is flagged, and ?slow=1 filters to it.
func TestSlowQueryMarking(t *testing.T) {
	hub := obshttp.NewHub(obshttp.Config{SlowQuery: time.Nanosecond})
	var hooks pipeline.QueryHooks = hub
	p := &pipeline.Progress{Label: "crawler", Start: time.Now()}
	hooks.QueryStarted(p)
	time.Sleep(time.Millisecond)
	hooks.QueryFinished(p, nil, nil)

	if got := hub.Log().Slow(); got != 1 {
		t.Fatalf("slow count %d, want 1", got)
	}
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	_, body, _ := get(t, srv, "/debug/queries?slow=1")
	var qp struct {
		SlowQueries uint64          `json:"slow_queries"`
		Queries     []obshttp.Entry `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &qp); err != nil {
		t.Fatal(err)
	}
	if qp.SlowQueries != 1 || len(qp.Queries) != 1 || !qp.Queries[0].Slow {
		t.Fatalf("slow filter wrong: %s", body)
	}
}

// TestServeAndClose binds :0, hits the live listener, and closes.
func TestServeAndClose(t *testing.T) {
	hub := obshttp.NewHub(obshttp.Config{Registry: obs.NewRegistry()})
	addr, err := hub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net3(addr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := hub.Serve("127.0.0.1:0"); err == nil {
		t.Error("second Serve on same hub should fail")
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// net3 splits host:port, verifying Serve returned a real bound address.
func net3(addr string) (string, string, error) {
	i := strings.LastIndex(addr, ":")
	if i < 0 || addr[i+1:] == "" || addr[i+1:] == "0" {
		return "", "", fmt.Errorf("bad bound addr %q", addr)
	}
	return addr[:i], addr[i+1:], nil
}
