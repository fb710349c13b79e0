package gf2

import "testing"

func TestFactor64(t *testing.T) {
	cases := []struct {
		n      uint64
		primes []uint64
		exps   []int
	}{
		{1, nil, nil},
		{2, []uint64{2}, []int{1}},
		{12, []uint64{2, 3}, []int{2, 1}},
		{255, []uint64{3, 5, 17}, []int{1, 1, 1}},
		{65535, []uint64{3, 5, 17, 257}, []int{1, 1, 1, 1}},
		{1 << 20, []uint64{2}, []int{20}},
	}
	for _, c := range cases {
		ps, es := Factor64(c.n)
		if len(ps) != len(c.primes) {
			t.Errorf("Factor64(%d) primes = %v, want %v", c.n, ps, c.primes)
			continue
		}
		for i := range ps {
			if ps[i] != c.primes[i] || es[i] != c.exps[i] {
				t.Errorf("Factor64(%d) = %v^%v, want %v^%v", c.n, ps, es, c.primes, c.exps)
			}
		}
	}
}

func TestFactor64Reconstruct(t *testing.T) {
	for n := uint64(2); n < 2000; n++ {
		ps, es := Factor64(n)
		prod := uint64(1)
		for i, p := range ps {
			for e := 0; e < es[i]; e++ {
				prod *= p
			}
		}
		if prod != n {
			t.Fatalf("Factor64(%d) does not reconstruct (got %d)", n, prod)
		}
	}
}

func TestIsPrimitiveKnown(t *testing.T) {
	primitive := []Poly{3, 7, 0xB, 0xD, 0x13, 0x19, 0x25, 0x11D}
	for _, p := range primitive {
		if !IsPrimitive(p) {
			t.Errorf("%v should be primitive", p)
		}
	}
	notPrimitive := []Poly{
		0x1F,  // irreducible, order 5
		0x11B, // irreducible, order 51
		0x15,  // reducible
		0,
		1,
	}
	for _, p := range notPrimitive {
		if IsPrimitive(p) {
			t.Errorf("%v should not be primitive", p)
		}
	}
}

func TestFirstPrimitive(t *testing.T) {
	cases := map[int]Poly{
		1: 3,
		2: 7,
		3: 0xB,
		4: 0x13,
		8: 0x11D, // the AES polynomial 0x11B is skipped: not primitive
	}
	for k, want := range cases {
		if got := FirstPrimitive(k); got != want {
			t.Errorf("FirstPrimitive(%d) = %#x, want %#x", k, uint64(got), uint64(want))
		}
	}
}

func TestPrimitiveImpliesMaximalPeriod(t *testing.T) {
	// For every primitive polynomial of degree <= 8, iterating s -> s*x
	// mod p from s=1 must visit all 2^k-1 nonzero residues.
	for k := 2; k <= 8; k++ {
		for _, p := range Irreducibles(k) {
			if !IsPrimitive(p) {
				continue
			}
			seen := make(map[Poly]bool)
			s := One
			for {
				if seen[s] {
					break
				}
				seen[s] = true
				s = MulMod(s, X, p)
			}
			if want := 1<<uint(k) - 1; len(seen) != want {
				t.Errorf("primitive %v cycle length %d, want %d", p, len(seen), want)
			}
		}
	}
}

func TestDefaultModulusMatchesFirstPrimitive(t *testing.T) {
	for m := 1; m <= 12; m++ {
		if got, want := DefaultModulus(m), FirstPrimitive(m); got != want {
			t.Errorf("DefaultModulus(%d) = %#x, want FirstPrimitive = %#x",
				m, uint64(got), uint64(want))
		}
	}
	// The paper's worked example uses p(z) = 1 + z + z^4.
	if DefaultModulus(4) != MustParse("1+z+z^4") {
		t.Errorf("DefaultModulus(4) must be the paper's 1+z+z^4")
	}
}
