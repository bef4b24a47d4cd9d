package logic

import (
	"fmt"
	"math"
	"strconv"
	"unicode"

	"weakmodels/internal/kripke"
)

// Parse reads the surface syntax produced by Formula.String:
//
//	formula := or
//	or      := and { "|" and }
//	and     := unary { "&" unary }
//	unary   := "!" unary | diamond | box | atom
//	diamond := "<" idx "," idx ">" [ "=" int ] unary      // ⟨(i,j)⟩≥k
//	box     := "[" idx "," idx "]" unary                  // ¬⟨α⟩¬
//	atom    := "true" | "false" | ident | "(" formula ")"
//	idx     := int | "*"
//
// "&" binds tighter than "|"; both associate left. "=k" after a diamond sets
// the grade (default 1).
func Parse(src string) (Formula, error) {
	p := &fparser{src: src}
	p.skipSpace()
	f, err := p.or()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}
	return f, nil
}

// MustParse is Parse panicking on error, for fixtures.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type fparser struct {
	src string
	pos int
}

func (p *fparser) errf(format string, args ...any) error {
	return fmt.Errorf("logic: %s at byte %d of %q", fmt.Sprintf(format, args...), p.pos, p.src)
}

func (p *fparser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *fparser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *fparser) or() (Formula, error) {
	f, err := p.and()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			return f, nil
		}
		p.pos++
		g, err := p.and()
		if err != nil {
			return nil, err
		}
		f = Or{L: f, R: g}
	}
}

func (p *fparser) and() (Formula, error) {
	f, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() != '&' {
			return f, nil
		}
		p.pos++
		g, err := p.unary()
		if err != nil {
			return nil, err
		}
		f = And{L: f, R: g}
	}
}

func (p *fparser) unary() (Formula, error) {
	p.skipSpace()
	switch p.peek() {
	case '!':
		p.pos++
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case '<':
		idx, err := p.label('<', '>')
		if err != nil {
			return nil, err
		}
		k := 1
		if p.peek() == '=' {
			p.pos++
			k, err = p.number()
			if err != nil {
				return nil, err
			}
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Diamond{Idx: idx, K: k, F: f}, nil
	case '[':
		idx, err := p.label('[', ']')
		if err != nil {
			return nil, err
		}
		f, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Box(idx, f), nil
	case '(':
		p.pos++
		f, err := p.or()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		return f, nil
	default:
		return p.atom()
	}
}

func (p *fparser) atom() (Formula, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
		} else {
			break
		}
	}
	name := p.src[start:p.pos]
	switch {
	case name == "true":
		return Top{}, nil
	case name == "false":
		return Bot{}, nil
	case name == "":
		return nil, p.errf("expected a formula")
	case unicode.IsDigit(rune(name[0])):
		return nil, p.errf("proposition %q may not start with a digit", name)
	default:
		return Prop{Name: name}, nil
	}
}

func (p *fparser) label(open, close byte) (kripke.Index, error) {
	var idx kripke.Index
	if p.peek() != open {
		return idx, p.errf("expected %q", string(open))
	}
	p.pos++
	i, err := p.indexPart()
	if err != nil {
		return idx, err
	}
	p.skipSpace()
	if p.peek() != ',' {
		return idx, p.errf("expected ','")
	}
	p.pos++
	j, err := p.indexPart()
	if err != nil {
		return idx, err
	}
	p.skipSpace()
	if p.peek() != close {
		return idx, p.errf("expected %q", string(close))
	}
	p.pos++
	return kripke.Index{I: i, J: j}, nil
}

func (p *fparser) indexPart() (int, error) {
	p.skipSpace()
	if p.peek() == '*' {
		p.pos++
		return kripke.Star, nil
	}
	n, err := p.number()
	if err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, p.errf("port index must be ≥ 1")
	}
	return n, nil
}

func (p *fparser) number() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return 0, p.errf("expected a number")
	}
	// Grades and port indices are int32 in the interned records; a wider
	// number is rejected here rather than aliasing a narrower one there.
	n, err := strconv.ParseInt(p.src[start:p.pos], 10, 32)
	if err != nil {
		return 0, p.errf("number %s exceeds the limit %d", p.src[start:p.pos], math.MaxInt32)
	}
	return int(n), nil
}
