package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes is prtsim's exit-status contract: 0 on a pass, 1
// when the scheme detects the injected fault, 2 with a message (never
// a panic) on refused input.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		out  string // a substring stdout (codes 0 and 1) or stderr must contain
	}{
		{"default", []string{"-n", "16"}, 0, "RESULT: PASS"},
		{"four iterations", []string{"-n", "16", "-iters", "4"}, 0, "scheme: PRT-4"},
		{"extended scheme", []string{"-n", "16", "-blocks", "2"}, 0, "RESULT: PASS"},
		{"bit-oriented signature only", []string{"-n", "16", "-m", "1", "-sig", "-trace"}, 0, "tdb:"},
		{"injected fault", []string{"-n", "16", "-fault", "saf1@3.0"}, 1, "RESULT: FAULT DETECTED"},
		{"help", []string{"-h"}, 0, ""},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"too few cells", []string{"-n", "3"}, 2, "bad geometry"},
		{"too-wide words", []string{"-m", "17"}, 2, "bad geometry"},
		{"no iterations", []string{"-iters", "0", "-fault", "saf1@3.0"}, 2, "-iters must be in 1..4"},
		{"too many iterations", []string{"-iters", "9"}, 2, "-iters must be in 1..4"},
		{"negative blocks", []string{"-blocks", "-1"}, 2, "-blocks must be non-negative"},
		{"unparsable fault", []string{"-fault", "saf9"}, 2, "missing @"},
		{"fault outside the memory", []string{"-fault", "saf0@99999.0"}, 2, "outside the 256-cell memory"},
		{"aliased address outside the memory", []string{"-fault", "afalias@1:99999"}, 2, "outside the 256-cell memory"},
		{"bit outside the word", []string{"-m", "1", "-fault", "saf0@3.2"}, 2, "outside the 1-bit word"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("prtsim %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			}
			got := stdout.String()
			if c.code == 2 {
				got = stderr.String()
			}
			if !strings.Contains(got, c.out) || strings.Contains(stderr.String(), "panic") {
				t.Errorf("prtsim %v printed %q, want it to mention %q", c.args, got, c.out)
			}
		})
	}
}
