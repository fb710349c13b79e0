// Command prtsim runs a pseudo-ring self-test on a simulated RAM,
// optionally with an injected fault.
//
// Usage:
//
//	prtsim [-n cells] [-m width] [-iters 1..4] [-blocks B] [-sig]
//	       [-fault spec] [-trace]
//
// Fault specs: saf0@C.B, saf1@C.B, tfup@C.B, tfdown@C.B, sof@C,
// afnone@A, afalias@A:T, afmulti@A:T, cfin@A.B>V.B, bridge@A.B~V.B
// (C,A,V cells; B bit).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/prt"
	"repro/internal/ram"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is prtsim: it parses args, runs the scheme, writes the report to
// stdout and diagnostics to stderr, and returns the exit status: 0 on a
// pass, 1 when the scheme detects a fault, 2 on refused input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 256, "memory cells")
	m := fs.Int("m", 4, "word width in bits (1 = bit-oriented)")
	iters := fs.Int("iters", 3, "π-test iterations (1-4)")
	blocks := fs.Int("blocks", 0, "use the extended scheme with this many 4-iteration blocks")
	sig := fs.Bool("sig", false, "signature-only (the paper's pure Fin vs Fin* comparator)")
	faultSpec := fs.String("fault", "", "fault to inject (see doc comment)")
	trace := fs.Bool("trace", false, "print the first TDB cells")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "prtsim: "+format+"\n", args...)
		return 2
	}

	if *n < 4 || *m < 1 || *m > 16 {
		return fail("bad geometry n=%d m=%d", *n, *m)
	}
	if *iters < 1 || *iters > 4 {
		return fail("-iters must be in 1..4 (got %d)", *iters)
	}
	if *blocks < 0 {
		return fail("-blocks must be non-negative (got %d)", *blocks)
	}
	gen := genFor(*m)
	var scheme prt.Scheme
	switch {
	case *blocks > 0:
		scheme = prt.ExtendedScheme(gen, *blocks)
	default:
		scheme = prt.StandardScheme4(gen).Truncate(*iters)
		scheme.Name = fmt.Sprintf("PRT-%d", *iters)
	}
	if *sig {
		scheme = scheme.SignatureOnly()
	}

	var mem ram.Memory
	if *m == 1 {
		mem = ram.NewBOM(*n)
	} else {
		mem = ram.NewWOM(*n, *m)
	}
	var injected fault.Fault
	if *faultSpec != "" {
		f, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return fail("%v", err)
		}
		if err := fault.CheckGeometry(f, *n, *m); err != nil {
			return fail("%v", err)
		}
		injected = f
		mem = f.Inject(mem)
	}

	fmt.Fprintf(stdout, "memory: %d cells × %d bit(s)\n", *n, *m)
	fmt.Fprintf(stdout, "scheme: %s (g(x) = %v, ops/cell = %d)\n", scheme.Name, gen, scheme.OpsPerCell())
	if injected != nil {
		fmt.Fprintf(stdout, "fault:  %v\n", injected)
	}

	res, err := scheme.Run(mem)
	if err != nil {
		return fail("%v", err)
	}
	if *trace {
		show := min(*n, 16)
		fmt.Fprint(stdout, "tdb:    ")
		for i := 0; i < show; i++ {
			fmt.Fprintf(stdout, "%X ", mem.Read(i))
		}
		fmt.Fprintln(stdout, "...")
	}
	for i, ir := range res.PerIteration {
		f := gen.Field
		fmt.Fprintf(stdout, "it.%d: Fin=%s Fin*=%s sig=%v stale=%d verify=%d\n",
			i+1, prt.FormatState(f, ir.Fin), prt.FormatState(f, ir.FinStar),
			!ir.SignatureMiss, ir.StaleMismatches, ir.VerifyMismatches)
	}
	fmt.Fprintf(stdout, "ops: %d (%.2f per cell)\n", res.Ops, float64(res.Ops)/float64(*n))
	if res.Detected {
		fmt.Fprintf(stdout, "RESULT: FAULT DETECTED (iteration %d)\n", res.DetectedAt)
		return 1
	}
	fmt.Fprintln(stdout, "RESULT: PASS")
	return 0
}

func genFor(m int) lfsr.GenPoly {
	if m == 1 {
		return prt.PaperBOMConfig().Gen
	}
	f := gf.NewField(m)
	return lfsr.MustGenPoly(f, []gf.Elem{1, 2, 2})
}
