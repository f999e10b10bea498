package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitStatus(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		want       int
		wantStderr string // substring
		wantStdout string // substring
	}{
		{"unknown exp", []string{"-exp", "nosuch"}, 2, `unknown experiment "nosuch" (valid: all, fig5,`, ""},
		// The closed-loop serving driver was removed; a stale gated
		// invocation must fail, not pass by running nothing.
		{"removed serve", []string{"-exp", "serve", "-scale", "small", "-gate"}, 2, `unknown experiment "serve"`, ""},
		{"unknown scale", []string{"-exp", "table2", "-scale", "huge"}, 2, `unknown scale "huge" (valid: small, full)`, ""},
		{"removed flag", []string{"-serve-queries", "300"}, 2, "flag provided but not defined", ""},
		{"table2 small", []string{"-exp", "table2", "-scale", "small", "-maxexplored", "2000"}, 0, "", "Table 2"},
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
			if tc.want == 2 && stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}
