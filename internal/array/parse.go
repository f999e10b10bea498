package array

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseSchema parses the paper's schema notation:
//
//	A<v1:int, v2:float>[i=1,6,3, j=1,6,3]
//
// The array name is optional (an anonymous schema such as
// "<v:int>[i=1,10,2]" is accepted, as used in redimension expressions).
// Dimension entries are name=start,end,chunkInterval; a bare "[]" produces
// a schema with no dimensions, which the caller must later infer (used for
// unordered A:A join outputs in AQL INTO clauses).
func ParseSchema(src string) (*Schema, error) {
	p := &schemaParser{src: src}
	s, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("array: parsing schema %q: %w", src, err)
	}
	return s, nil
}

// MustParseSchema is ParseSchema but panics on error; intended for tests
// and package-level literals.
func MustParseSchema(src string) *Schema {
	s, err := ParseSchema(src)
	if err != nil {
		panic(err)
	}
	return s
}

type schemaParser struct {
	src string
	pos int
}

func (p *schemaParser) parse() (*Schema, error) {
	s := &Schema{}
	p.skipSpace()
	s.Name = p.ident()
	p.skipSpace()
	if p.peek() == '<' {
		p.pos++
		attrs, err := p.attrList()
		if err != nil {
			return nil, err
		}
		s.Attrs = attrs
		if err := p.expect('>'); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if p.peek() == '[' {
		p.pos++
		dims, err := p.dimList()
		if err != nil {
			return nil, err
		}
		s.Dims = dims
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		if err := checkGrid(s.Name, dims); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if p.peek() == ';' {
		p.pos++
		p.skipSpace()
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return s, nil
}

func (p *schemaParser) attrList() ([]Attribute, error) {
	var attrs []Attribute
	p.skipSpace()
	if p.peek() == '>' {
		return attrs, nil
	}
	for {
		p.skipSpace()
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("expected attribute name at offset %d", p.pos)
		}
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		p.skipSpace()
		tname := p.ident()
		t, err := ParseScalarType(tname)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attribute{Name: name, Type: t})
		p.skipSpace()
		if p.peek() != ',' {
			return attrs, nil
		}
		p.pos++
	}
}

func (p *schemaParser) dimList() ([]Dimension, error) {
	var dims []Dimension
	p.skipSpace()
	if p.peek() == ']' {
		return dims, nil
	}
	for {
		p.skipSpace()
		name := p.ident()
		if name == "" {
			return nil, fmt.Errorf("expected dimension name at offset %d", p.pos)
		}
		if err := p.expect('='); err != nil {
			return nil, err
		}
		start, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		end, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		ci, err := p.number()
		if err != nil {
			return nil, err
		}
		d := Dimension{Name: name, Start: start, End: end, ChunkInterval: ci}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		dims = append(dims, d)
		p.skipSpace()
		if p.peek() != ',' {
			return dims, nil
		}
		p.pos++
	}
}

func (p *schemaParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *schemaParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *schemaParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *schemaParser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || c == '_' || (p.pos > start && unicode.IsDigit(c)) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *schemaParser) number() (int64, error) {
	p.skipSpace()
	start := p.pos
	if p.peek() == '-' || p.peek() == '+' {
		p.pos++
	}
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	txt := p.src[start:p.pos]
	// Accept suffix multipliers used in the paper's schemas: 4M, 128M, 2K.
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case 'K', 'k':
			txt += "000"
			p.pos++
		case 'M', 'm':
			txt += "000000"
			p.pos++
		case 'G', 'g':
			txt += "000000000"
			p.pos++
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(txt), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	return n, nil
}
