package march

import (
	"fmt"
	"strings"
)

// Parse reads a March algorithm from its textual notation, accepting
// both the paper's Unicode arrows and ASCII spellings:
//
//	{c(w0);⇑(r0,w1);⇓(r1,w0)}
//	{c(w0); up(r0,w1); down(r1,w0)}
//
// Whitespace is insignificant.  The outer braces are optional.
func Parse(name, s string) (Test, error) {
	t := Test{Name: name}
	body := strings.TrimSpace(s)
	body = strings.TrimPrefix(body, "{")
	body = strings.TrimSuffix(body, "}")
	if strings.TrimSpace(body) == "" {
		return t, fmt.Errorf("march: empty algorithm %q", s)
	}
	for _, chunk := range strings.Split(body, ";") {
		e, err := parseElement(chunk)
		if err != nil {
			return t, fmt.Errorf("march: %v in %q", err, s)
		}
		t.Elems = append(t.Elems, e)
	}
	if err := t.Validate(); err != nil {
		return t, err
	}
	return t, nil
}

func parseElement(chunk string) (Element, error) {
	c := strings.TrimSpace(chunk)
	open := strings.IndexByte(c, '(')
	if open < 0 || !strings.HasSuffix(c, ")") {
		return Element{}, fmt.Errorf("element %q missing parentheses", chunk)
	}
	ord, err := parseOrder(strings.TrimSpace(c[:open]))
	if err != nil {
		return Element{}, err
	}
	e := Element{Order: ord}
	for _, tok := range strings.Split(c[open+1:len(c)-1], ",") {
		op, err := parseOp(strings.TrimSpace(tok))
		if err != nil {
			return Element{}, err
		}
		e.Ops = append(e.Ops, op)
	}
	return e, nil
}

func parseOrder(s string) (Order, error) {
	switch s {
	case "c", "C", "⇕", "b", "any", "":
		return Any, nil
	case "⇑", "up", "u", "^":
		return Up, nil
	case "⇓", "down", "d", "v":
		return Down, nil
	default:
		return Any, fmt.Errorf("unknown order %q", s)
	}
}

func parseOp(s string) (Op, error) {
	if len(s) != 2 {
		return Op{}, fmt.Errorf("bad op %q", s)
	}
	var read bool
	switch s[0] {
	case 'r', 'R':
		read = true
	case 'w', 'W':
		read = false
	default:
		return Op{}, fmt.Errorf("bad op %q", s)
	}
	switch s[1] {
	case '0':
		return Op{Read: read, D: 0}, nil
	case '1':
		return Op{Read: read, D: 1}, nil
	default:
		return Op{}, fmt.Errorf("bad data in op %q", s)
	}
}
