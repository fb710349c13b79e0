package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// e17CheckpointSHA256 is the SHA-256 of the completion checkpoint that
// `faultcov -exp e17 -drop -checkpoint FILE` writes.  The file carries
// no timestamps and does not depend on the worker count or the chunk
// cap, so any change to it is a change of the checkpoint format or of
// E17's results, and updates this line on purpose.
const e17CheckpointSHA256 = "0b3868dfb41584d4cda2d65d2cef12d0eeda5ad6a93c2492a48deffe19e741aa"

// exhaustiveCFCheckpointSHA256 is the same pin for `faultcov -exp e17
// -exhaustive-cf -drop -checkpoint FILE`, whose 512-cell stages replay
// 512 machines per pass: the default evaluation has no memory that
// large, so this is the end-to-end check of the wide lanes.
const exhaustiveCFCheckpointSHA256 = "d3cbe6c07964d9b4886771c9bdf3132f2aa10e6a376629da3349a3f46f43a142"

// TestEvaluationGolden pins the whole evaluation byte for byte.  The
// per-fault oracle wrote every golden in testdata:
// paper-eval-seedS.csv is `faultcov -format csv -seed S -workers 2
// -engine oracle`, and paper-eval-drop-seedS.csv the same with -drop.
// The replay engines must reproduce them at every chunk cap.  The
// rule: a golden is only ever regenerated with -engine oracle, and the
// change that regenerates it says why; one rewritten from the compiled
// engine would hide exactly the defect it exists to catch.  (CI checks
// the oracle itself against seed 1's golden.)
//
// run goes through repro.Configure, a process global, so this test
// cannot run in parallel.  -short keeps one seed, the default engine
// and -drop.
func TestEvaluationGolden(t *testing.T) {
	ctx := context.Background()
	type variant struct {
		golden string
		args   []string
	}
	seeds := []int{1, 2, 3}
	variants := []variant{
		{"paper-eval", nil},
		{"paper-eval", []string{"-engine", "bitpar"}},
		{"paper-eval-drop", []string{"-drop"}},
		{"paper-eval-drop", []string{"-drop", "-chunk", "7"}},
	}
	if testing.Short() {
		seeds = seeds[:1]
		variants = []variant{variants[0], variants[2]}
	}
	for _, seed := range seeds {
		for _, v := range variants {
			args := append([]string{"-format", "csv", "-seed", fmt.Sprint(seed), "-workers", "2"}, v.args...)
			code, stdout, stderr := runFaultcov(ctx, args...)
			if code != 0 {
				t.Fatalf("faultcov %v exited %d; stderr:\n%s", args, code, stderr)
			}
			name := fmt.Sprintf("%s-seed%d.csv", v.golden, seed)
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("faultcov %v differs from testdata/%s at %s", args, name, firstDiff(string(want), stdout))
			}
		}
	}

	checkpointSHA256(t, e17CheckpointSHA256, "-exp", "e17", "-drop")
}

// TestExhaustiveCFCheckpoint pins the completion checkpoint of the
// exhaustive E17 campaign (about 3 s; skipped under -short), and its
// -progress stage lines show the width each stage picked — four stages
// per memory size, the 512-cell memory's last and at 512 lanes — and
// the share of scheduled instructions each executed: all of them for
// PRT-3, whose recurrence never skips, and under a fifth for March C−,
// whose batches skip the cells their faults do not reach.
func TestExhaustiveCFCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("the exhaustive coupling campaign takes seconds")
	}
	stderr := checkpointSHA256(t, exhaustiveCFCheckpointSHA256, "-exp", "e17", "-exhaustive-cf", "-drop", "-progress")
	lines := reportLines(stderr, "# stage")
	if len(lines) != 16 {
		t.Fatalf("printed %d stage lines, want 16:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	share := regexp.MustCompile(`, ops (\d+\.\d)%, `)
	for i, l := range lines {
		width := "[compiled, 64 lanes]"
		if i >= 12 {
			width = "[compiled, 512 lanes]"
		}
		if !strings.Contains(l, width) {
			t.Errorf("stage line %d = %q, want %s", i, l, width)
		}
		m := share.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("stage line %d = %q names no executed-op share", i, l)
			continue
		}
		pct, _ := strconv.ParseFloat(m[1], 64)
		if march := strings.Contains(l, "/March C- "); march && pct >= 20 || !march && pct != 100 {
			t.Errorf("stage line %d = %q: executed %.1f%% of its ops, want under 20%% for March C-, all for PRT-3", i, l, pct)
		}
	}
}

// checkpointSHA256 runs faultcov with args plus a fresh -checkpoint
// file, requires the completion file it writes to hash to want, and
// returns the run's stderr.
func checkpointSHA256(t *testing.T, want string, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.fckp")
	args = append(args, "-checkpoint", path, "-format", "csv", "-workers", "2")
	code, _, stderr := runFaultcov(context.Background(), args...)
	if code != 0 {
		t.Fatalf("faultcov %v exited %d; stderr:\n%s", args, code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("faultcov %v wrote a completion checkpoint with SHA-256 %s, want %s", args, got, want)
	}
	return stderr
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("the end: %d lines, want %d", len(g), len(w))
}
