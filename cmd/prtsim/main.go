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
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/prt"
	"repro/internal/ram"
)

func main() {
	n := flag.Int("n", 256, "memory cells")
	m := flag.Int("m", 4, "word width in bits (1 = bit-oriented)")
	iters := flag.Int("iters", 3, "π-test iterations (1-4)")
	blocks := flag.Int("blocks", 0, "use the extended scheme with this many 4-iteration blocks")
	sig := flag.Bool("sig", false, "signature-only (the paper's pure Fin vs Fin* comparator)")
	faultSpec := flag.String("fault", "", "fault to inject (see doc comment)")
	trace := flag.Bool("trace", false, "print the first TDB cells")
	flag.Parse()

	if *n < 4 || *m < 1 || *m > 16 {
		fatalf("bad geometry n=%d m=%d", *n, *m)
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
			fatalf("%v", err)
		}
		if err := fault.CheckGeometry(f, *n, *m); err != nil {
			fatalf("%v", err)
		}
		injected = f
		mem = f.Inject(mem)
	}

	fmt.Printf("memory: %d cells × %d bit(s)\n", *n, *m)
	fmt.Printf("scheme: %s (g(x) = %v, ops/cell = %d)\n", scheme.Name, gen, scheme.OpsPerCell())
	if injected != nil {
		fmt.Printf("fault:  %v\n", injected)
	}

	res, err := scheme.Run(mem)
	if err != nil {
		fatalf("%v", err)
	}
	if *trace {
		show := *n
		if show > 16 {
			show = 16
		}
		fmt.Print("tdb:    ")
		for i := 0; i < show; i++ {
			fmt.Printf("%X ", mem.Read(i))
		}
		fmt.Println("...")
	}
	for i, ir := range res.PerIteration {
		f := gen.Field
		fmt.Printf("it.%d: Fin=%s Fin*=%s sig=%v stale=%d verify=%d\n",
			i+1, prt.FormatState(f, ir.Fin), prt.FormatState(f, ir.FinStar),
			!ir.SignatureMiss, ir.StaleMismatches, ir.VerifyMismatches)
	}
	fmt.Printf("ops: %d (%.2f per cell)\n", res.Ops, float64(res.Ops)/float64(*n))
	if res.Detected {
		fmt.Printf("RESULT: FAULT DETECTED (iteration %d)\n", res.DetectedAt)
		os.Exit(1)
	}
	fmt.Println("RESULT: PASS")
}

func genFor(m int) lfsr.GenPoly {
	if m == 1 {
		return prt.PaperBOMConfig().Gen
	}
	f := gf.NewField(m)
	return lfsr.MustGenPoly(f, []gf.Elem{1, 2, 2})
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prtsim: "+format+"\n", args...)
	os.Exit(2)
}
