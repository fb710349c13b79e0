package gf2

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestStringKnown(t *testing.T) {
	cases := map[Poly]string{
		0:    "0",
		1:    "1",
		2:    "z",
		3:    "1 + z",
		0x13: "1 + z + z^4",
		0x25: "1 + z^2 + z^5",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("String(%#x) = %q, want %q", uint64(p), got, want)
		}
	}
}

func TestFormatIndeterminate(t *testing.T) {
	if got := Poly(0x7).Format("x"); got != "1 + x + x^2" {
		t.Errorf("Format = %q", got)
	}
}

func TestParseForms(t *testing.T) {
	cases := map[string]Poly{
		"1+z+z^4":       0x13,
		"1 + z + z^4":   0x13,
		"z^4 + z + 1":   0x13,
		"1+x+x^4":       0x13,
		"0x13":          0x13,
		"19":            19,
		"0b10011":       0x13,
		"z":             2,
		"1":             1,
		"z^2":           4,
		"z + z":         0, // duplicate terms cancel (GF(2))
		"1 + z + z + 1": 0,
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %#x, want %#x", s, uint64(got), uint64(want))
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "  ", "1++z", "z^", "z^-1", "2z", "z^99", "^4", "q4"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
	// Terms naming different indeterminates are refused with their own
	// error, not read as one polynomial in whichever letter came first.
	for _, s := range []string{"1 + x + y^4", "x + y", "z^4 + Z"} {
		if _, err := Parse(s); !errors.Is(err, ErrIndeterminates) {
			t.Errorf("Parse(%q) error = %v, want ErrIndeterminates", s, err)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("not a poly")
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		p := Poly(a)
		q, err := Parse(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzGF2Parse: Parse never panics, and whatever Format prints for an
// accepted polynomial, in any indeterminate, parses back to it.  Edge
// cases (mixed indeterminates, spaced and signed exponents, the top
// degree) are in testdata/fuzz/FuzzGF2Parse.
func FuzzGF2Parse(f *testing.F) {
	for _, s := range []string{"1 + z + z^4", "z^4 + z + 1", "0x13", "0b10011", "19", "z + z"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		for _, ind := range []string{"z", "x"} {
			text := p.Format(ind)
			q, err := Parse(text)
			if err != nil || q != p {
				t.Fatalf("Parse(%q) = %#x; its Format(%q) %q parses to %#x, %v", s, uint64(p), ind, text, uint64(q), err)
			}
		}
	})
}

// MustParse is Parse for the tests' literal inputs: it panics on error.
func MustParse(s string) Poly {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}
