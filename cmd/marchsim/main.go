// Command marchsim runs classical March tests on a simulated RAM.
//
// Usage:
//
//	marchsim -list
//	marchsim [-algo "March C-"] [-n cells] [-m width] [-notation "{c(w0);...}"]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/march"
	"repro/internal/ram"
	"repro/internal/report"
)

func main() {
	list := flag.Bool("list", false, "list the algorithm library")
	algo := flag.String("algo", "March C-", "algorithm name from the library")
	notation := flag.String("notation", "", "run a custom algorithm given in March notation")
	n := flag.Int("n", 256, "memory cells")
	m := flag.Int("m", 1, "word width in bits")
	flag.Parse()

	if *list {
		t := report.New("March algorithm library", "name", "ops/cell", "notation")
		for _, test := range march.Library() {
			t.AddRowf(test.Name, fmt.Sprintf("%dn", test.OpsPerCell()), test.String())
		}
		t.Render(os.Stdout)
		return
	}

	var test march.Test
	var err error
	if *notation != "" {
		test, err = march.Parse("custom", *notation)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		var ok bool
		test, ok = march.ByName(*algo)
		if !ok {
			fatalf("unknown algorithm %q (use -list)", *algo)
		}
	}

	if *n < 1 || *m < 1 || *m > 32 {
		fatalf("bad geometry n=%d m=%d (want n >= 1 and 1 <= m <= 32)", *n, *m)
	}
	var mem ram.Memory
	if *m == 1 {
		mem = ram.NewBOM(*n)
	} else {
		mem = ram.NewWOM(*n, *m)
	}
	bgs := march.DataBackgrounds(*m)
	fmt.Printf("algorithm: %s  %s\n", test.Name, test)
	fmt.Printf("memory:    %d cells × %d bit(s), %d background(s)\n", *n, *m, len(bgs))
	res := march.RunBackgrounds(test, mem, bgs)
	fmt.Printf("ops:       %d (%.1f per cell)\n", res.Ops, float64(res.Ops)/float64(*n))
	if res.Detected {
		fmt.Printf("RESULT: FAULT DETECTED (%v)\n", res.First)
		os.Exit(1)
	}
	fmt.Println("RESULT: PASS")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "marchsim: "+format+"\n", args...)
	os.Exit(2)
}
