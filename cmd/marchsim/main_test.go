package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes is marchsim's exit-status contract: 0 on a pass, 2
// with a message (never a panic) on refused input.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		out  string // a substring stdout (code 0) or stderr must contain
	}{
		{"default", []string{"-n", "16"}, 0, "RESULT: PASS"},
		{"list", []string{"-list"}, 0, "March C-"},
		{"custom notation", []string{"-n", "8", "-notation", "{c(w0);u(r0,w1);d(r1)}"}, 0, "RESULT: PASS"},
		{"word-oriented", []string{"-n", "8", "-m", "4", "-algo", "MATS+"}, 0, "3 background(s)"},
		{"help", []string{"-h"}, 0, ""},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"unknown algorithm", []string{"-algo", "March Z"}, 2, "unknown algorithm"},
		{"unparsable notation", []string{"-notation", "{"}, 2, "empty algorithm"},
		{"read contradicting a write", []string{"-notation", "{c(w0);u(r1)}"}, 2, "reads r1 after w0"},
		{"no cells", []string{"-n", "0"}, 2, "bad geometry"},
		{"no bits", []string{"-m", "0"}, 2, "bad geometry"},
		{"too-wide words", []string{"-m", "99"}, 2, "bad geometry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("marchsim %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			}
			got := stdout.String()
			if c.code != 0 {
				got = stderr.String()
			}
			if !strings.Contains(got, c.out) || strings.Contains(stderr.String(), "panic") {
				t.Errorf("marchsim %v printed %q, want it to mention %q", c.args, got, c.out)
			}
		})
	}
}
