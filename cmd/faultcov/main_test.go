package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFaultcov runs faultcov under ctx with args and returns its exit
// status, stdout and stderr.
func runFaultcov(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunExitCodes is faultcov's exit-status contract: 2 for refused
// input, 1 for a setting no campaign session used, 0 for a clean run.
// In args, CK names a fresh copy of a completed E17 checkpoint,
// BAD a corrupt checkpoint, and OUT a file the case must not create.
func TestRunExitCodes(t *testing.T) {
	ctx := context.Background()
	fixture := filepath.Join(t.TempDir(), "e17.fckp")
	if code, _, stderr := runFaultcov(ctx, "-exp", "e17", "-format", "csv", "-workers", "2", "-checkpoint", fixture); code != 0 {
		t.Fatalf("writing the fixture checkpoint exited %d: %s", code, stderr)
	}
	ckBytes, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // a substring the diagnostic must contain
	}{
		{"chunk 0", []string{"-chunk", "0", "-exp", "fig1a"}, 2, "-chunk"},
		{"negative workers", []string{"-workers", "-1", "-exp", "fig1a"}, 2, "-workers"},
		{"checkpoint-every without checkpoint", []string{"-checkpoint-every", "10", "-exp", "fig1a"}, 2, "-checkpoint-every requires -checkpoint"},
		{"resume without checkpoint", []string{"-resume", "-exp", "fig1a"}, 2, "-resume requires -checkpoint"},
		// -lanes is gone: each compiled stage picks its lane width from
		// the memory size, so every value is refused, 512 included.
		{"lanes 128", []string{"-lanes", "128", "-exp", "fig1a"}, 2, "flag provided but not defined: -lanes"},
		{"lanes 0", []string{"-lanes", "0", "-exp", "fig1a"}, 2, "flag provided but not defined: -lanes"},
		{"lanes 512", []string{"-lanes", "512", "-exp", "fig1a"}, 2, "flag provided but not defined: -lanes"},
		{"partition 0/3", []string{"-exp", "e17", "-partition", "0/3", "-checkpoint", "OUT"}, 2, "-partition wants i/N"},
		{"partition 4/3", []string{"-exp", "e17", "-partition", "4/3", "-checkpoint", "OUT"}, 2, "-partition wants i/N"},
		{"partition 1/1", []string{"-exp", "e17", "-partition", "1/1", "-checkpoint", "OUT"}, 2, "-partition wants i/N"},
		{"partition abc", []string{"-exp", "e17", "-partition", "abc", "-checkpoint", "OUT"}, 2, "-partition wants i/N"},
		{"partition 2/", []string{"-exp", "e17", "-partition", "2/", "-checkpoint", "OUT"}, 2, "-partition wants i/N"},
		{"partition without checkpoint", []string{"-exp", "e17", "-partition", "1/3"}, 2, "-partition requires -checkpoint"},
		{"empty merge", []string{"-merge"}, 2, "-merge needs"},
		{"merge with partition", []string{"-merge", "-partition", "1/3", "CK"}, 2, "mutually exclusive"},
		{"merge with resume", []string{"-merge", "-resume", "-checkpoint", "OUT", "CK"}, 2, "-resume is meaningless"},
		{"unknown experiment", []string{"-exp", "e99"}, 2, "unknown experiment"},
		{"unknown format", []string{"-exp", "fig1a", "-format", "xml"}, 2, "unknown format"},
		{"removed csv alias", []string{"-exp", "fig1a", "-csv"}, 2, "flag provided but not defined: -csv"},
		{"unknown engine", []string{"-exp", "fig1a", "-engine", "fast"}, 2, "unknown engine"},
		{"wrong-seed resume", []string{"-exp", "e17", "-format", "csv", "-checkpoint", "CK", "-resume", "-seed", "99"}, 2, "seed"},
		{"corrupt checkpoint", []string{"-exp", "e17", "-format", "csv", "-checkpoint", "BAD", "-resume"}, 2, "corrupt"},
		// The engine is part of every session's identity.
		{"unmatched resume", []string{"-exp", "e17", "-format", "csv", "-workers", "2", "-engine", "bitpar", "-checkpoint", "CK", "-resume"}, 1, "matched no campaign session"},
		{"partition with no streaming session", []string{"-exp", "e6", "-partition", "1/2", "-checkpoint", "OUT", "-format", "csv", "-workers", "2"}, 1, "-partition applies to streaming campaign sessions only"},
		{"checkpoint with no streaming session", []string{"-exp", "fig1a", "-checkpoint", "OUT"}, 1, "-checkpoint applies to streaming campaign sessions only"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out.fckp")
			args := make([]string, len(c.args))
			for i, a := range c.args {
				switch a {
				case "CK":
					a = filepath.Join(dir, "ck.fckp")
					if err := os.WriteFile(a, ckBytes, 0o644); err != nil {
						t.Fatal(err)
					}
				case "BAD":
					a = filepath.Join(dir, "bad.fckp")
					if err := os.WriteFile(a, []byte("garbage"), 0o644); err != nil {
						t.Fatal(err)
					}
				case "OUT":
					a = out
				}
				args[i] = a
			}
			code, _, stderr := runFaultcov(ctx, args...)
			if code != c.code {
				t.Fatalf("faultcov %v exited %d, want %d; stderr:\n%s", c.args, code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr, c.stderr)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("faultcov %v created %s (%v)", c.args, out, err)
			}
		})
	}
}

// TestRunCancelled: a run whose context is already cancelled still
// prints its (partial) tables and reports the interrupt with status 3.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, stdout, stderr := runFaultcov(ctx, "-exp", "e17", "-format", "csv", "-workers", "2")
	if code != 3 {
		t.Fatalf("cancelled run exited %d, want 3; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "exact escapes") {
		t.Errorf("cancelled run printed no E17 table:\n%s", stdout)
	}
	if !strings.Contains(stderr, "# interrupted") {
		t.Errorf("stderr %q lacks the interrupt report", stderr)
	}
}

// TestRunTextHeader: a clean text-mode run exits 0 and opens with the
// run header, byte for byte.
func TestRunTextHeader(t *testing.T) {
	code, stdout, stderr := runFaultcov(context.Background(), "-exp", "fig1a", "-workers", "2")
	if code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr)
	}
	const header = "# engine=compiled workers=2 drop=false seed=default chunk=8192\n\n## Fig.1a"
	if !strings.HasPrefix(stdout, header) {
		t.Errorf("output does not open with %q:\n%s", header, stdout)
	}
}

// reportLines returns the lines of out that start with prefix.
func reportLines(out, prefix string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestRunReportLines: -progress prints one `# stage` line per stage a
// session ran, on stderr and in execution order, naming the universe,
// the runner, the engine and its lane width; a stage cut short by an
// interrupt prints none.  -session prints one `# session` line per
// session of two or more runners: E6 is one ten-runner session, and
// every E14 session has one runner.
func TestRunReportLines(t *testing.T) {
	ctx := context.Background()
	code, stdout, stderr := runFaultcov(ctx, "-exp", "e14", "-progress", "-workers", "2")
	if code != 0 {
		t.Fatalf("e14 -progress exited %d; stderr:\n%s", code, stderr)
	}
	if got := reportLines(stdout, "# stage"); len(got) != 0 {
		t.Errorf("stage lines on stdout: %q", got)
	}
	want := []string{
		"# stage single/PRT-1/plain [compiled, 64 lanes]: 1024 faults in ",
		"# stage single/PRT-1/ring [compiled, 64 lanes]: 1024 faults in ",
		"# stage single/PRT-1/plain [compiled, 64 lanes]: 4080 faults in ",
		"# stage single/PRT-1/ring [compiled, 64 lanes]: 4080 faults in ",
		"# stage single/PRT-1/plain [compiled, 64 lanes]: 4112 faults in ",
		"# stage single/PRT-1/ring [compiled, 64 lanes]: 4112 faults in ",
	}
	got := reportLines(stderr, "# stage")
	if len(got) != len(want) {
		t.Fatalf("e14 -progress printed %d stage lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, line := range got {
		if !strings.HasPrefix(line, want[i]) || !strings.Contains(line, "sink-wait/worker [") {
			t.Errorf("stage line %d = %q, want prefix %q and the sink-wait shares", i, line, want[i])
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if code, _, stderr := runFaultcov(cancelled, "-exp", "e17", "-progress", "-workers", "2"); code != 3 || len(reportLines(stderr, "# stage")) != 0 {
		t.Errorf("cancelled e17 -progress exited %d with stage lines %q, want 3 and none", code, reportLines(stderr, "# stage"))
	}

	for _, c := range []struct {
		exp      string
		sessions int
	}{{"e6", 1}, {"e14", 0}} {
		code, stdout, stderr := runFaultcov(ctx, "-exp", c.exp, "-session", "-workers", "2")
		if code != 0 {
			t.Fatalf("%s -session exited %d; stderr:\n%s", c.exp, code, stderr)
		}
		if got := reportLines(stdout, "# session"); len(got) != c.sessions {
			t.Errorf("%s -session printed %d session lines, want %d: %q", c.exp, len(got), c.sessions, got)
		}
		if got := reportLines(stderr, "# stage"); len(got) != 0 {
			t.Errorf("%s -session printed stage lines without -progress: %q", c.exp, got)
		}
	}
}
