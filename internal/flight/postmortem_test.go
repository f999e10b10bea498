package flight

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
}

func TestPostmortemCapture(t *testing.T) {
	rec := Default
	mark := rec.Stats().Recorded
	q := rec.NextQID()
	rec.Record(EvQueryStart, q, rec.Label("SELECT fail"), 0, 0, 0)
	rec.Record(EvBudgetOverflow, q, 9000, 4096, 0, 0)

	pm := &Postmortem{
		Dir: t.TempDir(),
		Metrics: func(w io.Writer) error {
			_, err := io.WriteString(w, "engine_up 1\n")
			return err
		},
	}
	dir, err := pm.Capture("strict-budget",
		Section{Name: "report", Value: map[string]any{"matches": 0, "error": "budget exceeded"}},
		Section{Name: "skipped", Value: nil},
	)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if !strings.Contains(filepath.Base(dir), "strict-budget") {
		t.Errorf("bundle dir %q does not name the reason", dir)
	}

	// Every expected file exists and the JSON ones parse.
	var meta struct {
		Reason   string   `json:"reason"`
		Sections []string `json:"sections"`
	}
	readJSON(t, filepath.Join(dir, "meta.json"), &meta)
	if meta.Reason != "strict-budget" {
		t.Errorf("meta reason = %q", meta.Reason)
	}
	if len(meta.Sections) != 1 || meta.Sections[0] != "report" {
		t.Errorf("meta sections = %v (nil-valued sections must be dropped)", meta.Sections)
	}

	// flight.json dumps the Default ring; the two events recorded above
	// are its newest.
	var fl struct {
		Events []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"events"`
	}
	readJSON(t, filepath.Join(dir, "flight.json"), &fl)
	var ours []string
	for _, e := range fl.Events {
		if e.Seq >= mark {
			ours = append(ours, e.Type)
		}
	}
	if len(ours) != 2 || ours[0] != "query-start" || ours[1] != "budget-overflow" {
		t.Fatalf("flight.json events from seq %d = %v", mark, ours)
	}

	var repSec map[string]any
	readJSON(t, filepath.Join(dir, "report.json"), &repSec)
	if repSec["error"] != "budget exceeded" {
		t.Errorf("report section = %v", repSec)
	}

	if data, err := os.ReadFile(filepath.Join(dir, "metrics.prom")); err != nil || string(data) != "engine_up 1\n" {
		t.Errorf("metrics.prom = %q, %v", data, err)
	}
	gor, err := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if err != nil || !strings.Contains(string(gor), "goroutine") {
		t.Errorf("goroutines.txt missing stacks: %v", err)
	}
	if st, err := os.Stat(filepath.Join(dir, "heap.pprof")); err != nil || st.Size() == 0 {
		t.Errorf("heap.pprof missing or empty: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "skipped.json")); !os.IsNotExist(err) {
		t.Error("nil-valued section produced a file")
	}
}

func TestPostmortemBundleCap(t *testing.T) {
	pm := &Postmortem{Dir: t.TempDir()}
	for i := 0; i < maxBundles; i++ {
		if _, err := pm.Capture("loop"); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	if _, err := pm.Capture("loop"); !errors.Is(err, ErrBundleCap) {
		t.Fatalf("over-cap capture err = %v, want ErrBundleCap", err)
	}
	entries, _ := os.ReadDir(pm.Dir)
	if len(entries) != maxBundles {
		t.Errorf("bundle dirs = %d, want %d", len(entries), maxBundles)
	}
}

func TestPostmortemNilAndUnconfigured(t *testing.T) {
	var pm *Postmortem
	if _, err := pm.Capture("x"); err == nil {
		t.Error("nil postmortem should error")
	}
	if _, err := (&Postmortem{}).Capture("x"); err == nil {
		t.Error("dir-less postmortem should error")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("strict budget: A/B"); got != "strict-budget--A-B" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize(""); got != "unnamed" {
		t.Errorf("sanitize empty = %q", got)
	}
	if got := sanitize(strings.Repeat("x", 100)); len(got) != 48 {
		t.Errorf("sanitize long len = %d", len(got))
	}
}

func TestDefaultPostmortem(t *testing.T) {
	old := DefaultPostmortem()
	defer SetDefaultPostmortem(old)

	dir := t.TempDir()
	SetDefaultPostmortem(&Postmortem{Dir: dir})
	pm := DefaultPostmortem()
	if pm == nil || pm.Dir != dir {
		t.Fatalf("default postmortem = %+v", pm)
	}
	SetDefaultPostmortem(nil)
	if DefaultPostmortem() != nil {
		t.Error("cleared default should stay nil")
	}
}
