// Command marchsim runs classical March tests on a simulated RAM.
//
// Usage:
//
//	marchsim -list
//	marchsim [-algo "March C-"] [-n cells] [-m width] [-notation "{c(w0);...}"]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/march"
	"repro/internal/ram"
	"repro/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is marchsim: it parses args, runs the selected test, writes the
// report to stdout and diagnostics to stderr, and returns the exit
// status: 0 on a pass, 1 when the test detects a fault, 2 on refused
// input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the algorithm library")
	algo := fs.String("algo", "March C-", "algorithm name from the library")
	notation := fs.String("notation", "", "run a custom algorithm given in March notation")
	n := fs.Int("n", 256, "memory cells")
	m := fs.Int("m", 1, "word width in bits")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "marchsim: "+format+"\n", args...)
		return 2
	}

	if *list {
		t := report.New("March algorithm library", "name", "ops/cell", "notation")
		for _, test := range march.Library() {
			t.AddRowf(test.Name, fmt.Sprintf("%dn", test.OpsPerCell()), test.String())
		}
		t.Render(stdout)
		return 0
	}

	var test march.Test
	if *notation != "" {
		var err error
		test, err = march.Parse("custom", *notation)
		if err != nil {
			return fail("%v", err)
		}
	} else {
		var ok bool
		test, ok = march.ByName(*algo)
		if !ok {
			return fail("unknown algorithm %q (use -list)", *algo)
		}
	}

	if *n < 1 || *m < 1 || *m > 32 {
		return fail("bad geometry n=%d m=%d (want n >= 1 and 1 <= m <= 32)", *n, *m)
	}
	var mem ram.Memory
	if *m == 1 {
		mem = ram.NewBOM(*n)
	} else {
		mem = ram.NewWOM(*n, *m)
	}
	bgs := march.DataBackgrounds(*m)
	fmt.Fprintf(stdout, "algorithm: %s  %s\n", test.Name, test)
	fmt.Fprintf(stdout, "memory:    %d cells × %d bit(s), %d background(s)\n", *n, *m, len(bgs))
	res := march.RunBackgrounds(test, mem, bgs)
	fmt.Fprintf(stdout, "ops:       %d (%.1f per cell)\n", res.Ops, float64(res.Ops)/float64(*n))
	if res.Detected {
		fmt.Fprintf(stdout, "RESULT: FAULT DETECTED (%v)\n", res.First)
		return 1
	}
	fmt.Fprintln(stdout, "RESULT: PASS")
	return 0
}
