package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shufflejoin/internal/storage"
)

func TestRun(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		want       int
		wantArrays []string // .sjar files written, by array name
		wantStderr string   // substring
	}{
		{"bad kind", []string{"-kind", "nosuch"}, 2, nil, "-kind must be one of ais, modis, zipf, pair"},
		{"no kind", nil, 2, nil, "-kind must be one of"},
		{"unknown flag", []string{"-kind", "ais", "-nosuch"}, 2, nil, "flag provided but not defined"},
		{"ais", []string{"-kind", "ais", "-cells", "500"}, 0, []string{"Broadcast"}, ""},
		{"modis", []string{"-kind", "modis", "-cells", "500", "-name", "Band7"}, 0, []string{"Band7"}, ""},
		{"zipf", []string{"-kind", "zipf", "-cells", "500", "-grid", "4"}, 0, []string{"A"}, ""},
		{"pair", []string{"-kind", "pair", "-cells", "500", "-sel", "0.2"}, 0, []string{"A", "B"}, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-out", dir}, tc.args...)
			if got := run(args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit status = %d, want %d (stderr: %s)", got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.wantStderr)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.sjar"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != len(tc.wantArrays) {
				t.Fatalf("wrote %v, want arrays %v", files, tc.wantArrays)
			}
			for _, name := range tc.wantArrays {
				f, err := os.Open(filepath.Join(dir, name+".sjar"))
				if err != nil {
					t.Fatal(err)
				}
				a, err := storage.ReadArray(f)
				f.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a.Schema.Name != name || a.CellCount() == 0 {
					t.Errorf("%s.sjar holds %s with %d cells", name, a.Schema.Name, a.CellCount())
				}
				if !strings.Contains(stdout.String(), "wrote "+name+":") {
					t.Errorf("stdout = %q, want a line for %s", stdout.String(), name)
				}
			}
		})
	}
}
