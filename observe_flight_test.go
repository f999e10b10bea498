package shufflejoin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const obsQ = "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"

func TestWithFlightRecorderFacade(t *testing.T) {
	db := obsDB(t)
	fr := NewFlightRecorder(512)
	res, err := db.Query(obsQ, WithFlightRecorder(fr))
	if err != nil {
		t.Fatal(err)
	}
	st := fr.Stats()
	if st.Recorded == 0 {
		t.Fatal("query recorded no flight events into the pinned recorder")
	}
	if st.Capacity != 512 {
		t.Errorf("capacity = %d, want 512", st.Capacity)
	}

	// Recording is telemetry only: the same query without a recorder
	// produces an identical result and profile fingerprint.
	db2 := obsDB(t)
	off, err := db2.Query(obsQ, WithoutFlightRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if off.Matches != res.Matches {
		t.Errorf("recorded run diverges: matches %d vs %d", res.Matches, off.Matches)
	}
	if got, want := res.Profile().Fingerprint(), off.Profile().Fingerprint(); got != want {
		t.Errorf("recorded profile fingerprint diverges:\n--- recorded ---\n%s\n--- off ---\n%s", got, want)
	}

	if err := func() error {
		_, err := db.Query(obsQ, WithFlightRecorder(nil))
		return err
	}(); err == nil {
		t.Error("WithFlightRecorder(nil) accepted")
	}
}

func TestWithPostmortemFacade(t *testing.T) {
	db := obsDB(t)
	dir := t.TempDir()
	pm := &Postmortem{Dir: dir, Flight: NewFlightRecorder(256)}
	_, err := db.Query(obsQ,
		WithFlightRecorder(pm.Flight),
		WithPostmortem(pm),
		WithMemoryBudget(256), WithStrict())
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
	for _, f := range []string{"meta.json", "flight.json", "failure.json", "goroutines.txt"} {
		if _, err := os.Stat(filepath.Join(bundles[0], f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}

	if err := func() error {
		_, err := db.Query(obsQ, WithPostmortem(&Postmortem{}))
		return err
	}(); err == nil {
		t.Error("WithPostmortem without a directory accepted")
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

// TestObsHubFlightStatus: the facade hub serves the new debug surfaces
// with the recorder the query wrote into.
func TestObsHubFlightStatus(t *testing.T) {
	db := obsDB(t)
	fr := NewFlightRecorder(512)
	hub := db.NewObsHub(ObsConfig{
		Flight: fr,
		Status: StatusInfo{Component: "facade-test", Details: map[string]string{"env": "ci"}},
	})
	if _, err := db.Query(obsQ, WithQueryLog(hub), WithFlightRecorder(fr)); err != nil {
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
	for _, want := range []string{`"query-start"`, `"query-finish"`, `"align-done"`} {
		if !strings.Contains(fl, want) {
			t.Errorf("/debug/flight missing %s", want)
		}
	}
}
