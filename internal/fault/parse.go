package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ram"
)

// ParseSpec parses the textual fault mini-language used by the CLIs
// and test generators:
//
//	saf0@C.B  saf1@C.B        stuck-at on cell C bit B (".B" optional)
//	tfup@C.B  tfdown@C.B      transition faults
//	sof@C                     stuck-open cell
//	drf0@C.B/D  drf1@C.B/D    retention fault decaying to 0/1 after D ops
//	afnone@A  afalias@A:T  afmulti@A:T
//	cfin@A.B>V.B  cfind@…     inversion coupling (up / down)
//	cfid0@A.B>V.B  cfid1@…    idempotent coupling forcing 0/1 (up)
//	cfst@A.B=X>V.B=Y          state coupling: victim forced Y while agg X
//	bridge@A.B~V.B  bridgeand@…   OR / AND bridge
func ParseSpec(s string) (Fault, error) {
	kind, rest, ok := strings.Cut(strings.TrimSpace(s), "@")
	if !ok {
		return nil, fmt.Errorf("fault: bad spec %q (missing @)", s)
	}
	kind = strings.ToLower(kind)
	switch kind {
	case "saf0", "saf1":
		c, b, err := cellBit(rest)
		if err != nil {
			return nil, err
		}
		return SAF{Cell: c, Bit: b, Value: bitOf(kind == "saf1")}, nil
	case "tfup", "tfdown":
		c, b, err := cellBit(rest)
		if err != nil {
			return nil, err
		}
		return TF{Cell: c, Bit: b, Up: kind == "tfup"}, nil
	case "sof":
		c, _, err := cellBit(rest)
		if err != nil {
			return nil, err
		}
		return SOF{Cell: c}, nil
	case "drf0", "drf1":
		head, delayStr, found := strings.Cut(rest, "/")
		if !found {
			return nil, fmt.Errorf("fault: drf needs /delay in %q", s)
		}
		c, b, err := cellBit(head)
		if err != nil {
			return nil, err
		}
		delay, err := strconv.ParseUint(strings.TrimSpace(delayStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad delay in %q", s)
		}
		return DRF{Cell: c, Bit: b, Decay: bitOf(kind == "drf1"), Delay: delay}, nil
	case "afnone":
		a, _, err := cellBit(rest)
		if err != nil {
			return nil, err
		}
		return AF{Kind: AFNone, Addr: a}, nil
	case "afalias", "afmulti":
		at, tt, found := strings.Cut(rest, ":")
		if !found {
			return nil, fmt.Errorf("fault: %s needs addr:target", kind)
		}
		a, err := strconv.Atoi(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("fault: bad addr in %q", s)
		}
		tg, err := strconv.Atoi(strings.TrimSpace(tt))
		if err != nil {
			return nil, fmt.Errorf("fault: bad target in %q", s)
		}
		k := AFAlias
		if kind == "afmulti" {
			k = AFMulti
		}
		return AF{Kind: k, Addr: a, Target: tg}, nil
	case "cfin", "cfind":
		ac, ab, vc, vb, err := pair(rest, ">")
		if err != nil {
			return nil, err
		}
		return CFin{AggCell: ac, AggBit: ab, VicCell: vc, VicBit: vb, Up: kind == "cfin"}, nil
	case "cfid0", "cfid1":
		ac, ab, vc, vb, err := pair(rest, ">")
		if err != nil {
			return nil, err
		}
		return CFid{AggCell: ac, AggBit: ab, VicCell: vc, VicBit: vb,
			Up: true, Value: bitOf(kind == "cfid1")}, nil
	case "cfst":
		agg, vic, found := strings.Cut(rest, ">")
		if !found {
			return nil, fmt.Errorf("fault: cfst needs agg>vic")
		}
		ac, ab, av, err := cellBitVal(agg)
		if err != nil {
			return nil, err
		}
		vc, vb, vv, err := cellBitVal(vic)
		if err != nil {
			return nil, err
		}
		return CFst{AggCell: ac, AggBit: ab, VicCell: vc, VicBit: vb,
			AggValue: av, Value: vv}, nil
	case "bridge", "bridgeand":
		ac, ab, vc, vb, err := pair(rest, "~")
		if err != nil {
			return nil, err
		}
		return BF{CellA: ac, BitA: ab, CellB: vc, BitB: vb, And: kind == "bridgeand"}, nil
	default:
		return nil, fmt.Errorf("fault: unknown kind %q", kind)
	}
}

// MustParseSpec is ParseSpec but panics on error (test helper).
func MustParseSpec(s string) Fault {
	f, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return f
}

// CheckGeometry reports an error unless every cell and bit f names lies
// inside an n-cell memory of m-bit words.  ParseSpec checks syntax
// only, so a CLI that injects a parsed fault calls this first: a fault
// on a cell or bit the memory lacks would otherwise panic at injection
// or, for a bit past the word, silently change nothing.
func CheckGeometry(f Fault, n, m int) error {
	var sites [][2]int // (cell, bit) pairs the fault touches
	switch t := f.(type) {
	case SAF:
		sites = [][2]int{{t.Cell, t.Bit}}
	case TF:
		sites = [][2]int{{t.Cell, t.Bit}}
	case SOF:
		sites = [][2]int{{t.Cell, 0}}
	case DRF:
		sites = [][2]int{{t.Cell, t.Bit}}
	case AF:
		sites = [][2]int{{t.Addr, 0}}
		if t.Kind != AFNone {
			sites = append(sites, [2]int{t.Target, 0})
		}
	case CFin:
		sites = [][2]int{{t.AggCell, t.AggBit}, {t.VicCell, t.VicBit}}
	case CFid:
		sites = [][2]int{{t.AggCell, t.AggBit}, {t.VicCell, t.VicBit}}
	case CFst:
		sites = [][2]int{{t.AggCell, t.AggBit}, {t.VicCell, t.VicBit}}
	case BF:
		sites = [][2]int{{t.CellA, t.BitA}, {t.CellB, t.BitB}}
	case SNPSF:
		sites = neighbourhoodSites(t.Nb)
	case ANPSF:
		sites = neighbourhoodSites(t.Nb)
	default:
		return fmt.Errorf("fault: cannot check the geometry of %T", f)
	}
	for _, s := range sites {
		if s[0] < 0 || s[0] >= n {
			return fmt.Errorf("fault: %v names cell %d, outside the %d-cell memory", f, s[0], n)
		}
		if s[1] < 0 || s[1] >= m {
			return fmt.Errorf("fault: %v names bit %d, outside the %d-bit word", f, s[1], m)
		}
	}
	return nil
}

// neighbourhoodSites lists bit 0 of the base cell and of every
// neighbour present (a negative neighbour is one the grid edge cut off).
func neighbourhoodSites(nb Neighbourhood) [][2]int {
	sites := [][2]int{{nb.Base, 0}}
	for _, c := range nb.cells() {
		sites = append(sites, [2]int{c, 0})
	}
	return sites
}

func bitOf(b bool) ram.Word {
	if b {
		return 1
	}
	return 0
}

// cellBit parses "C" or "C.B".
func cellBit(t string) (cell, bit int, err error) {
	c, b, found := strings.Cut(strings.TrimSpace(t), ".")
	cell, err = strconv.Atoi(c)
	if err != nil || cell < 0 {
		return 0, 0, fmt.Errorf("fault: bad cell in %q", t)
	}
	if found {
		bit, err = strconv.Atoi(b)
		if err != nil || bit < 0 {
			return 0, 0, fmt.Errorf("fault: bad bit in %q", t)
		}
	}
	return cell, bit, nil
}

// cellBitVal parses "C.B=V".
func cellBitVal(t string) (cell, bit int, val ram.Word, err error) {
	head, v, found := strings.Cut(strings.TrimSpace(t), "=")
	if !found {
		return 0, 0, 0, fmt.Errorf("fault: missing =value in %q", t)
	}
	cell, bit, err = cellBit(head)
	if err != nil {
		return 0, 0, 0, err
	}
	switch strings.TrimSpace(v) {
	case "0":
		val = 0
	case "1":
		val = 1
	default:
		return 0, 0, 0, fmt.Errorf("fault: bad value in %q", t)
	}
	return cell, bit, val, nil
}

// pair parses "A.B<sep>V.B".
func pair(t, sep string) (ac, ab, vc, vb int, err error) {
	a, v, found := strings.Cut(t, sep)
	if !found {
		return 0, 0, 0, 0, fmt.Errorf("fault: missing %q in %q", sep, t)
	}
	ac, ab, err = cellBit(a)
	if err != nil {
		return
	}
	vc, vb, err = cellBit(v)
	return
}
