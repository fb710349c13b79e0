package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes is gfsynth's exit-status contract: 0 on success, 2
// with a message (never a panic) on refused input.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		out  string // a substring stdout (code 0) or stderr must contain
	}{
		{"default", nil, 0, "naive: "},
		{"explicit modulus", []string{"-p", "1+z+z^4", "-c", "3", "-verilog"}, 0, "module gfmul_3"},
		{"survey", []string{"-m", "3", "-survey"}, 0, "total"},
		{"widest field", []string{"-m", "32", "-c", "5"}, 0, "GF(2^32)"},
		{"help", []string{"-h"}, 0, ""},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"degree 0", []string{"-m", "0"}, 2, "-m must be in 1..32"},
		{"degree 33", []string{"-m", "33"}, 2, "-m must be in 1..32"},
		{"degree 40", []string{"-m", "40"}, 2, "-m must be in 1..32"},
		{"constant wider than 32 bits", []string{"-c", "4294967298"}, 2, "does not fit"},
		{"constant outside the field", []string{"-c", "16"}, 2, "gf"},
		{"unparsable modulus", []string{"-p", "1+z^"}, 2, "bad exponent"},
		{"reducible modulus", []string{"-p", "1+z^2"}, 2, "not irreducible"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("gfsynth %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			}
			got := stdout.String()
			if c.code != 0 {
				got = stderr.String()
			}
			if !strings.Contains(got, c.out) || strings.Contains(stderr.String(), "panic") {
				t.Errorf("gfsynth %v printed %q, want it to mention %q", c.args, got, c.out)
			}
		})
	}
}
