package prt

import (
	"fmt"
	"sort"

	"repro/internal/gf"
	"repro/internal/lfsr"
	"repro/internal/ram"
)

// Diagnosis extends detection to localisation: after a scheme has
// flagged a memory, DiagnoseCells runs read-back passes against the
// predicted TDB of each iteration and triangulates which cells (and
// bits) misbehave — the information a repair flow (row/column
// redundancy allocation) needs.

// CellReport describes one suspicious cell.
type CellReport struct {
	// Addr is the cell address.
	Addr int
	// BadBits is a mask of bit positions that mismatched in at least
	// one iteration.
	BadBits ram.Word
	// Mismatches counts iterations in which the cell read wrong.
	Mismatches int
	// StuckAt is set (0 or 1) when every observed error on every bad
	// bit read the same value — the stuck-at hypothesis; -1 otherwise.
	StuckAt int
}

func (c CellReport) String() string {
	sa := "?"
	if c.StuckAt >= 0 {
		sa = fmt.Sprintf("stuck-at-%d", c.StuckAt)
	}
	return fmt.Sprintf("cell %d bits %#x (%d misses, %s)", c.Addr, uint32(c.BadBits), c.Mismatches, sa)
}

// Diagnosis is the outcome of DiagnoseCells.
type Diagnosis struct {
	// Suspects, sorted by address: every cell that misread at least
	// once across the diagnostic iterations.
	Suspects []CellReport
	// FirstMismatch records, per failing iteration, the address of the
	// first mismatching cell in that iteration's trajectory order.
	// Because errors propagate forward along the walk, this is the
	// defect-candidate list: the true defect (or its coupling victim)
	// heads each failing iteration.
	FirstMismatch []int
	// Complexity is the Berlekamp-Massey linear complexity of the
	// observed first-iteration TDB; a fault-free memory yields exactly
	// the automaton's k.
	Complexity int
	// Ops counts memory operations spent.
	Ops uint64
}

// Detected reports whether any suspect was found.
func (d Diagnosis) Detected() bool { return len(d.Suspects) > 0 }

// DiagnoseCells runs the scheme's iterations on mem, after each one
// re-reading every cell against the predicted contents and recording
// mismatching addresses/bits.  Mirror placeholders are resolved as in
// Scheme.Run.  The first iteration's observed TDB is additionally fed
// to Berlekamp-Massey as an independent complexity witness.
func DiagnoseCells(s Scheme, mem ram.Memory) (Diagnosis, error) {
	var diag Diagnosis
	n := mem.Size()
	perCell := make(map[int]*CellReport)
	var firstObserved []gf.Elem

	iters, err := s.Resolve(n)
	if err != nil {
		return diag, err
	}
	for i, cfg := range iters {
		// Diagnosis drives its own read-back; disable the in-iteration
		// extras to keep op accounting clean.
		cfg.Verify = false
		cfg.CaptureStale = false
		cfg.StaleExpect = nil
		ir, err := RunIteration(cfg, mem)
		if err != nil {
			return diag, fmt.Errorf("prt: diagnose iteration %d: %w", i+1, err)
		}
		diag.Ops += ir.Ops

		// Read back every cell against the prediction.
		addr := cfg.Addresses(n)
		want := ExpectedSequence(cfg, n)
		observed := make([]gf.Elem, n)
		first := -1
		for pos := 0; pos < n; pos++ {
			got := gf.Elem(mem.Read(addr[pos]))
			diag.Ops++
			observed[pos] = got
			if got != want[pos] {
				if first < 0 {
					first = addr[pos]
				}
				rep := perCell[addr[pos]]
				if rep == nil {
					rep = &CellReport{Addr: addr[pos], StuckAt: -1}
					perCell[addr[pos]] = rep
				}
				rep.Mismatches++
				diff := ram.Word(got ^ want[pos])
				rep.BadBits |= diff
				updateStuckHypothesis(rep, ram.Word(got), diff)
			}
		}
		if first >= 0 {
			diag.FirstMismatch = append(diag.FirstMismatch, first)
		}
		if i == 0 {
			firstObserved = observed
		}
	}

	if firstObserved != nil {
		l, err := lfsr.LinearComplexity(iters[0].Gen.Field, firstObserved)
		if err == nil {
			diag.Complexity = l
		}
	}
	for _, rep := range perCell {
		diag.Suspects = append(diag.Suspects, *rep)
	}
	sort.Slice(diag.Suspects, func(i, j int) bool {
		return diag.Suspects[i].Addr < diag.Suspects[j].Addr
	})
	return diag, nil
}

// updateStuckHypothesis refines the per-cell stuck-at hypothesis: on
// the first error the observed value of the failing bits seeds the
// hypothesis; any later contradiction clears it.
func updateStuckHypothesis(rep *CellReport, got ram.Word, diff ram.Word) {
	// Extract the observed value of the lowest differing bit.
	var bit int
	for b := 0; b < 32; b++ {
		if diff>>uint(b)&1 == 1 {
			bit = b
			break
		}
	}
	v := int(got >> uint(bit) & 1)
	switch {
	case rep.Mismatches == 1:
		rep.StuckAt = v
	case rep.StuckAt != v:
		rep.StuckAt = -1
	}
}

// PrimarySuspect returns the best defect candidate, or nil when the
// diagnosis is clean: the address heading the most failing iterations
// (errors propagate forward along each trajectory, so the defect — or
// its coupling victim — is the first mismatch of every iteration that
// excites it).  Ties break towards the lower address.
func (d Diagnosis) PrimarySuspect() *CellReport {
	if len(d.FirstMismatch) == 0 {
		return nil
	}
	votes := map[int]int{}
	for _, a := range d.FirstMismatch {
		votes[a]++
	}
	best, bestVotes := -1, 0
	for a, v := range votes {
		if v > bestVotes || (v == bestVotes && a < best) {
			best, bestVotes = a, v
		}
	}
	for i := range d.Suspects {
		if d.Suspects[i].Addr == best {
			return &d.Suspects[i]
		}
	}
	return nil
}
