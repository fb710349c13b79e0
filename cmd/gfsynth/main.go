// Command gfsynth synthesises XOR-only networks for multiplication by
// a constant in GF(2^m) — the hardware block the paper embeds in the
// memory circuit (§2).
//
// Usage:
//
//	gfsynth [-m 4] [-p "1+z+z^4"] [-c 2] [-verilog] [-survey]
//
// -p sets the field modulus; its degree is the field's, so an explicit
// -m must agree with it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gf"
	"repro/internal/gf2"
	"repro/internal/report"
	"repro/internal/xorsynth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is gfsynth: it parses args, synthesises the requested networks,
// writes them to stdout and diagnostics to stderr, and returns the
// exit status: 0 on success, 2 on refused input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gfsynth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	m := fs.Int("m", 4, "extension degree of GF(2^m), 1..32")
	pstr := fs.String("p", "", "field modulus p(z) (default: smallest primitive)")
	c := fs.Uint("c", 2, "the constant to multiply by")
	verilog := fs.Bool("verilog", false, "emit a structural Verilog listing")
	survey := fs.Bool("survey", false, "survey all nonzero constants of the field")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gfsynth: "+format+"\n", args...)
		return 2
	}
	if *m < 1 || *m > 32 {
		return fail("-m must be in 1..32 (got %d)", *m)
	}
	if *c > 1<<32-1 {
		return fail("-c %d does not fit a 32-bit field element", *c)
	}

	var field *gf.Field
	if *pstr == "" {
		field = gf.NewField(*m)
	} else {
		p, err := gf2.Parse(*pstr)
		if err != nil {
			return fail("%v", err)
		}
		mSet := false
		fs.Visit(func(f *flag.Flag) { mSet = mSet || f.Name == "m" })
		if mSet && p.Deg() != *m {
			return fail("-m %d contradicts -p %q, whose degree is %d", *m, *pstr, p.Deg())
		}
		field, err = gf.NewFieldPoly(p)
		if err != nil {
			return fail("%v", err)
		}
	}
	fmt.Fprintf(stdout, "field: %v\n", field)

	if *survey {
		t := report.New("constant multiplier survey", "constant", "naive", "CSE", "saved", "depth")
		totN, totC := 0, 0
		for _, cost := range xorsynth.SurveyField(field) {
			t.AddRowf(field.FormatElem(cost.Constant),
				fmt.Sprintf("%d", cost.NaiveGates),
				fmt.Sprintf("%d", cost.CSEGates),
				fmt.Sprintf("%d", cost.Saved()),
				fmt.Sprintf("%d", cost.CSEDepth))
			totN += cost.NaiveGates
			totC += cost.CSEGates
		}
		t.AddRowf("total", fmt.Sprintf("%d", totN), fmt.Sprintf("%d", totC),
			fmt.Sprintf("%d", totN-totC), "-")
		t.Render(stdout)
		return 0
	}

	elem, err := field.ElemFromBits(uint32(*c))
	if err != nil {
		return fail("%v", err)
	}
	mat := field.ConstMulMatrix(elem)
	naive := xorsynth.Naive(mat)
	cse := xorsynth.CSE(mat)
	fmt.Fprintf(stdout, "constant: %s\n", field.FormatElem(elem))
	fmt.Fprintf(stdout, "matrix (rows = output bits):\n%v\n", mat)
	fmt.Fprintf(stdout, "naive: %d XORs depth %d | CSE: %d XORs depth %d\n",
		naive.GateCount(), naive.Depth(), cse.GateCount(), cse.Depth())
	if *verilog {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, cse.Verilog(fmt.Sprintf("gfmul_%x", *c)))
	}
	return 0
}
