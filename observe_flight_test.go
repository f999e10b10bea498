package shufflejoin

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shufflejoin/internal/flight"
)

const obsQ = "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"

// flightTrail decodes a flight JSON dump (a bundle's flight.json or a
// /debug/flight body) and returns the events from sequence number mark
// on.
func flightTrail(t *testing.T, data []byte, mark uint64) []flight.DecodedEvent {
	t.Helper()
	var dump struct {
		Events []flight.DecodedEvent `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	var out []flight.DecodedEvent
	for _, e := range dump.Events {
		if e.Seq >= mark {
			out = append(out, e)
		}
	}
	return out
}

// hasEvent reports whether evs holds an event of type typ whose query
// argument, when it has one, is q.
func hasEvent(evs []flight.DecodedEvent, typ, q string) bool {
	for _, e := range evs {
		if e.Type != typ {
			continue
		}
		if got, ok := e.Args["query"]; ok && got != q {
			continue
		}
		return true
	}
	return false
}

// TestQueryRecordsIntoDefaultRing: a query with no telemetry options
// records its lifecycle into the process-wide ring.
func TestQueryRecordsIntoDefaultRing(t *testing.T) {
	db := obsDB(t)
	mark := flight.Default.Stats().Recorded
	if _, err := db.Query(obsQ); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flight.Default.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	evs := flightTrail(t, buf.Bytes(), mark)
	for _, typ := range []string{"query-start", "stage-start", "stage-finish", "query-finish"} {
		if !hasEvent(evs, typ, obsQ) {
			t.Errorf("flight.Default holds no %s for the query", typ)
		}
	}
}

// TestQueryFlightTrailCount pins how much of the ring one query takes:
// its lifecycle, six stage-start/stage-finish pairs and its budget
// traffic, and no copy of what its Report holds. A plan-cached two-way
// join over threeWayDB, whose senders stall on receiver locks, records
// 18 events.
func TestQueryFlightTrailCount(t *testing.T) {
	const q = `SELECT Readings.value, Sensors.site FROM Readings, Sensors WHERE Readings.sensor = Sensors.sid`
	db := threeWayDB(t)
	mark := flight.Default.Stats().Recorded
	res, err := db.Query(q, WithPlanCache(NewPlanCache()))
	if err != nil {
		t.Fatal(err)
	}
	if res.LockWaitSeconds <= 0 {
		t.Fatalf("fixture produced no lock waits")
	}
	var buf bytes.Buffer
	if err := flight.Default.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	evs := flightTrail(t, buf.Bytes(), mark)
	for _, e := range evs {
		counts[e.Type]++
	}
	want := map[string]int{
		"query-start": 1, "stage-start": 6, "stage-finish": 6, "query-finish": 1,
		"budget-charge": 2, "budget-credit": 2,
	}
	if len(evs) != 18 || !reflect.DeepEqual(counts, want) {
		t.Errorf("the query recorded %d events %v, want 18 %v", len(evs), counts, want)
	}
}

func TestDBPostmortemOnDemand(t *testing.T) {
	db := obsDB(t)
	if _, err := db.Query(obsQ); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bundle, err := db.Postmortem(dir)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(filepath.Join(bundle, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "query_count 1") {
		t.Errorf("on-demand bundle metrics missing query_count:\n%s", metrics)
	}
	var meta struct {
		Reason string `json:"reason"`
	}
	raw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil || meta.Reason != "on-demand" {
		t.Errorf("meta reason = %q (err %v), want on-demand", meta.Reason, err)
	}

	if _, err := db.Postmortem(""); err == nil {
		t.Error("Postmortem with empty dir accepted")
	}
}

// TestObsHubFlightStatus: the facade hub serves the debug surfaces, and
// /debug/flight the ring the query wrote into.
func TestObsHubFlightStatus(t *testing.T) {
	db := obsDB(t)
	hub := db.NewObsHub(ObsConfig{
		Status: StatusInfo{Component: "facade-test", Details: map[string]string{"env": "ci"}},
	})
	if _, err := db.Query(obsQ, WithQueryLog(hub)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	var status struct {
		Component string            `json:"component"`
		Details   map[string]string `json:"details"`
		GoVersion string            `json:"go_version"`
	}
	if err := json.Unmarshal([]byte(get("/debug/status")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Component != "facade-test" || status.Details["env"] != "ci" || status.GoVersion == "" {
		t.Errorf("/debug/status payload = %+v", status)
	}
	fl := get("/debug/flight")
	for _, want := range []string{`"query-start"`, `"query-finish"`, `"stage-finish"`} {
		if !strings.Contains(fl, want) {
			t.Errorf("/debug/flight missing %s", want)
		}
	}
}

// TestFailedQueryTrailInBundleAndHub: with no recorder configured
// anywhere, a strict-budget failure's trail is in one ring, so the
// bundle the process-wide sink captures and the hub's /debug/flight
// both hold the query's query-start.
func TestFailedQueryTrailInBundleAndHub(t *testing.T) {
	db := obsDB(t)
	hub := db.NewObsHub(ObsConfig{})
	dir := t.TempDir()
	old := flight.DefaultPostmortem()
	flight.SetDefaultPostmortem(&flight.Postmortem{Dir: dir})
	t.Cleanup(func() { flight.SetDefaultPostmortem(old) })
	mark := flight.Default.Stats().Recorded
	_, err := db.Query(obsQ, WithQueryLog(hub), WithMemoryBudget(256), WithStrict())
	if err == nil {
		t.Fatal("strict 256-byte budget did not fail the query")
	}

	bundles, globErr := filepath.Glob(filepath.Join(dir, "pm-*"))
	if globErr != nil || len(bundles) != 1 {
		t.Fatalf("bundles = %v (err %v), want exactly 1", bundles, globErr)
	}
	if !strings.HasSuffix(bundles[0], "-strict-budget") {
		t.Errorf("bundle %q does not carry the strict-budget reason", bundles[0])
	}
	data, err := os.ReadFile(filepath.Join(bundles[0], "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	if evs := flightTrail(t, data, mark); !hasEvent(evs, "query-start", obsQ) || !hasEvent(evs, "budget-overflow", "") {
		t.Errorf("bundle flight.json lacks the query's query-start or budget-overflow: %+v", evs)
	}

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if evs := flightTrail(t, body, mark); !hasEvent(evs, "query-start", obsQ) || !hasEvent(evs, "query-error", "") {
		t.Errorf("/debug/flight lacks the query's query-start or query-error: %+v", evs)
	}
}
