// Wordoriented walks through the paper's Figure 1b example in detail:
// the virtual automaton g(x) = 1 + 2x + 2x² over GF(2⁴) with
// p(z) = 1 + z + z⁴ generates the test data background 0,1,2,6,8,F,…
// through the memory's own cells, closes the pseudo-ring at period
// 255, and predicts Fin* analytically.
package main

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/prt"
	"repro/internal/ram"
)

func main() {
	cfg := prt.PaperWOMConfig()
	f := cfg.Gen.Field
	fmt.Printf("field: %v\n", f)
	fmt.Printf("g(x):  %v  (k = %d stages)\n", cfg.Gen, cfg.Gen.K())

	// The virtual automaton on its own (offset q = 0: the plain LFSR).
	w := lfsr.MustAffine(cfg.Gen, 0, cfg.Seed)
	fmt.Print("LFSR sequence: ")
	for _, v := range w.Sequence(16) {
		fmt.Printf("%s ", f.FormatElem(v))
	}
	fmt.Printf("...\nperiod: %d (maximal: 16² - 1)\n\n", w.Period(0))

	// The same automaton emulated by the memory array: n = 257 so the
	// walk takes exactly 255 steps and the ring closes (Fin == Init).
	mem := ram.NewWOM(257, 4)
	res := prt.MustRunIteration(cfg, mem)
	fmt.Printf("memory TDB:    ")
	for i := 0; i < 16; i++ {
		fmt.Printf("%s ", f.FormatElem(gf.Elem(mem.Read(i))))
	}
	fmt.Println("...")
	fmt.Printf("Init = %s, Fin = %s, Fin* = %s\n",
		prt.FormatState(f, cfg.Seed), prt.FormatState(f, res.Fin), prt.FormatState(f, res.FinStar))
	fmt.Printf("ring closed: %v  ((n-k) mod period = %d)\n", res.RingClosed, (257-2)%255)
	fmt.Printf("operations: %d  (≈3n, the paper's O(3n))\n\n", res.Ops)

	// Fin* can be predicted without simulation via companion-matrix
	// jump-ahead — this is how the BIST knows the expected signature.
	finStar, err := lfsr.AffineJumpAhead(cfg.Gen, 0, cfg.Seed, 255)
	if err != nil {
		panic(err)
	}
	fmt.Printf("jump-ahead Fin* over 255 steps: %s\n", prt.FormatState(f, finStar))

	// Wrap-around ring mode: the automaton re-enters the seed cells, so
	// closure needs n ≡ 0 (mod 255) exactly.
	ringCfg := cfg
	ringCfg.Ring = true
	ringMem := ram.NewWOM(255, 4)
	ringRes := prt.MustRunIteration(ringCfg, ringMem)
	fmt.Printf("ring mode (n=255): closed=%v detected=%v\n", ringRes.RingClosed, ringRes.Detected)
}
