package march

import (
	"reflect"
	"testing"

	"repro/internal/ram"
)

// FuzzMarchParse: Parse never panics, a test it accepts runs on a
// bit-oriented and on a word-oriented memory without panicking, and
// the printed notation of an accepted test parses back to an equal
// test.
func FuzzMarchParse(f *testing.F) {
	for _, t := range Library() {
		f.Add(t.String())
	}
	f.Add("{c(w0);u(r1)}") // parses structurally, then reads what it never wrote
	f.Add("{")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		test, err := Parse("fuzz", s)
		if err != nil {
			return
		}
		RunBackgrounds(test, ram.NewBOM(4), DataBackgrounds(1))
		RunBackgrounds(test, ram.NewWOM(4, 2), DataBackgrounds(2))
		back, err := Parse("fuzz", test.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its notation %q does not parse back: %v", s, test.String(), err)
		}
		if !reflect.DeepEqual(back, test) {
			t.Fatalf("Parse(%q) = %+v, but its notation %q parses back to %+v", s, test, test.String(), back)
		}
	})
}
