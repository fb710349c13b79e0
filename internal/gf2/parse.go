package gf2

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// String renders p in the ascending-power notation used by the paper,
// e.g. Poly(0b10011).String() == "1 + z + z^4".  The zero polynomial is
// "0".  The indeterminate is written "z" to match the paper's p(z).
func (p Poly) String() string { return p.Format("z") }

// Format renders p with the given indeterminate name in ascending
// powers, e.g. Format("x") yields "1 + x + x^4".
func (p Poly) Format(ind string) string {
	if p == 0 {
		return "0"
	}
	var terms []string
	for i := 0; i <= p.Deg(); i++ {
		if p.Coeff(i) == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, "1")
		case 1:
			terms = append(terms, ind)
		default:
			terms = append(terms, ind+"^"+strconv.Itoa(i))
		}
	}
	return strings.Join(terms, " + ")
}

// ErrIndeterminates is the error Parse wraps when the terms of one
// expression name different indeterminates, as in "1 + x + y^4".
var ErrIndeterminates = errors.New("gf2: terms name different indeterminates")

// Parse parses a polynomial over GF(2) from either a term expression
// such as "1 + z + z^4" (one single-letter indeterminate shared by every
// term, '+'-separated, whitespace ignored; products such as "z*z" are
// not supported — use powers) or a hexadecimal/binary/decimal literal
// accepted by strconv.ParseUint with base auto-detection ("0x13",
// "0b10011", "19").  Duplicate terms cancel, matching GF(2) addition.
func Parse(s string) (Poly, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("gf2: empty polynomial string")
	}
	// Try a numeric literal first.
	if v, err := strconv.ParseUint(t, 0, 64); err == nil {
		return Poly(v), nil
	}
	var p Poly
	var ind byte // the indeterminate of the first non-constant term
	for _, raw := range strings.Split(t, "+") {
		term := strings.TrimSpace(raw)
		if term == "" {
			return 0, fmt.Errorf("gf2: empty term in %q", s)
		}
		deg, err := parseTerm(term)
		if err != nil {
			return 0, fmt.Errorf("gf2: %v in %q", err, s)
		}
		if term != "1" {
			if ind == 0 {
				ind = term[0]
			} else if term[0] != ind {
				return 0, fmt.Errorf("%w: %c and %c in %q", ErrIndeterminates, ind, term[0], s)
			}
		}
		p = p.Add(1 << uint(deg)) // duplicates cancel
	}
	return p, nil
}

// parseTerm parses a single term ("1", "z", "x^4") and returns its degree.
func parseTerm(term string) (int, error) {
	if term == "1" {
		return 0, nil
	}
	// Single letter indeterminate.
	ind := rune(term[0])
	if !isLetter(ind) {
		return 0, fmt.Errorf("bad term %q", term)
	}
	rest := term[1:]
	if rest == "" {
		return 1, nil
	}
	if !strings.HasPrefix(rest, "^") {
		return 0, fmt.Errorf("bad term %q", term)
	}
	d, err := strconv.Atoi(strings.TrimSpace(rest[1:]))
	if err != nil || d < 0 || d > MaxDegree {
		return 0, fmt.Errorf("bad exponent in term %q", term)
	}
	return d, nil
}

func isLetter(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}
