package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/storage"
	"shufflejoin/internal/workload"
)

// pairDir writes datagen's "-kind pair" inputs (A<v>[i], B<w>[j]) into a
// fresh directory, beside C<x>[k] with x = k, which joins B on B.j = C.x.
func pairDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := storage.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := workload.SelectivityPair(2000, 2000, 8, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(b); err != nil {
		t.Fatal(err)
	}
	c := array.MustNew(array.MustParseSchema("C<x:int>[k=1,2000,250]"))
	for k := int64(1); k <= 2000; k++ {
		c.MustPut([]int64{k}, []array.Value{array.IntValue(k)})
	}
	c.SortAll()
	if err := store.Save(c); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunExitStatus(t *testing.T) {
	data := pairDir(t)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	const (
		join = "SELECT i, j INTO T<i:int, j:int>[] FROM A JOIN B ON A.v = B.w"
		// The destination's v range is far narrower than the join keys.
		clamping = "SELECT i, j INTO T<i:int, j:int>[v=0,9,5] FROM A JOIN B ON A.v = B.w"
		threeWay = "SELECT A.v, C.x FROM A, B, C WHERE A.v = B.w AND B.j = C.x"
	)
	tests := []struct {
		name       string
		args       []string
		want       int
		wantStderr string // substring
		wantStdout string // substring
		profiles   int    // EXPLAIN ANALYZE blocks printed
	}{
		{"no query", []string{"-data", data}, 2, "usage: shufflejoin", "", 0},
		{"unknown planner", []string{"-data", data, "-planner", "nosuch", join}, 2, `unknown planner "nosuch"`, "", 0},
		{"removed flag", []string{"-profile", join}, 2, "flag provided but not defined", "", 0},
		{"removed metrics flag", []string{"-metrics", join}, 2, "flag provided but not defined", "", 0},
		{"no data", []string{"-data", t.TempDir(), join}, 1, "no .sjar files", "", 0},
		{"plain", []string{"-data", data, "-sample", "0", join}, 0, "", "matches:", 0},
		{"analyze", []string{"-data", data, "-sample", "0", "-analyze", join}, 0, "", "EXPLAIN ANALYZE", 1},
		{"analyze three-way", []string{"-data", data, "-sample", "0", "-planner", "tabu", "-analyze", threeWay}, 0, "", "planner search", 2},
		{"trace", []string{"-data", data, "-sample", "0", "-trace", traceFile, join}, 0, "", "Chrome trace written", 0},
		{"clamped", []string{"-data", data, "-sample", "0", clamping}, 0, "", "WARNING:", 0},
		{"strict", []string{"-data", data, "-sample", "0", "-strict", clamping}, 1, "StrictBounds", "", 0},
		{"explain three-way", []string{"-data", data, "-explain", threeWay}, 1, "EXPLAIN previews two-array joins; this query joins 3 arrays", "", 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit status = %d, want %d (stderr: %s)", got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.wantStderr)
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout = %q, want it to contain %q", stdout.String(), tc.wantStdout)
			}
			if n := strings.Count(stdout.String(), "EXPLAIN ANALYZE"); n != tc.profiles {
				t.Errorf("%d EXPLAIN ANALYZE blocks, want %d", n, tc.profiles)
			}
			if tc.want == 2 && stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("-trace wrote %d traceEvents (err %v)", len(doc.TraceEvents), err)
	}
}
