package array

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// ErrBounds is wrapped by every strict-bounds rejection: a value bound for
// a dimension whose declared range does not contain it. Match it with
// errors.Is.
var ErrBounds = errors.New("outside declared range (StrictBounds)")

// Dimension describes one named dimension of an array schema: a contiguous
// range of integer coordinate values [Start, End] divided into logical
// chunks of ChunkInterval coordinates each. Dimensions are ordered; the
// order determines the C-order traversal used inside chunks.
type Dimension struct {
	Name          string
	Start, End    int64 // inclusive range of coordinate values
	ChunkInterval int64 // coordinates per chunk along this dimension
}

// Extent returns the number of potential coordinate values of the dimension.
func (d Dimension) Extent() int64 { return d.End - d.Start + 1 }

// ChunkCount returns the number of logical chunks along the dimension.
func (d Dimension) ChunkCount() int64 {
	return (d.Extent()-1)/d.ChunkInterval + 1
}

// ChunkIndex returns the zero-based index of the chunk containing coord.
func (d Dimension) ChunkIndex(coord int64) int64 {
	return (coord - d.Start) / d.ChunkInterval
}

// Contains reports whether coord lies inside the dimension range.
func (d Dimension) Contains(coord int64) bool {
	return coord >= d.Start && coord <= d.End
}

// Clamp is the engine's one clamp-or-reject rule: a value outside the
// dimension's declared range moves onto the nearest boundary, or, under
// strict bounds, is rejected with an error wrapping ErrBounds.
func (d Dimension) Clamp(v int64, strict bool) (int64, error) {
	switch {
	case d.Contains(v):
		return v, nil
	case strict:
		return v, fmt.Errorf("value %d for dimension %s=[%d,%d] %w", v, d.Name, d.Start, d.End, ErrBounds)
	case v < d.Start:
		return d.Start, nil
	default:
		return d.End, nil
	}
}

// Reorganize is the engine's one schema-reorganization walk, Table 1's
// rechunk: it maps every cell of src, in chunk C-order and in-chunk row
// order, into the target schema, where each target dimension or attribute
// takes the value of the source field of the same name (so attributes may
// become dimensions and back). Target coordinates go through Clamp. The
// returned array's chunks are unsorted; redim is Reorganize + SortAll.
// each, when non-nil, sees every cell's source chunk and target
// coordinates, which are valid only during the call.
func Reorganize(src *Array, target *Schema, strict bool, each func(src ChunkKey, dst []int64)) (*Array, error) {
	t := target.Clone()
	if t.Name == "" {
		t.Name = src.Schema.Name
	}
	out, err := New(t)
	if err != nil {
		return nil, err
	}
	dimSrc := make([]sourceField, len(t.Dims))
	for i, d := range t.Dims {
		if dimSrc[i], err = src.Schema.sourceOf(d.Name); err != nil {
			return nil, err
		}
	}
	attrSrc := make([]sourceField, len(t.Attrs))
	for i, at := range t.Attrs {
		if attrSrc[i], err = src.Schema.sourceOf(at.Name); err != nil {
			return nil, err
		}
	}
	// Put copies the cell, so one pair of buffers serves every row.
	nc, na := make([]int64, len(dimSrc)), make([]Value, len(attrSrc))
	for _, key := range src.SortedKeys() {
		ch := src.Chunks[key]
		field := func(f sourceField, row int) Value {
			if f.isDim {
				return IntValue(ch.Coords[f.idx][row])
			}
			return ch.Cols[f.idx].Value(row)
		}
		for row := 0; row < ch.Len(); row++ {
			for i, f := range dimSrc {
				if nc[i], err = t.Dims[i].Clamp(field(f, row).AsInt(), strict); err != nil {
					return nil, fmt.Errorf("array: reorganized cell %v: %w", ch.CoordsAt(row, nil), err)
				}
			}
			for i, f := range attrSrc {
				na[i] = field(f, row)
			}
			if err := out.Put(nc, na); err != nil {
				return nil, err
			}
			if each != nil {
				each(key, nc)
			}
		}
	}
	return out, nil
}

// sourceField locates the source dimension or attribute a reorganized
// field takes its value from.
type sourceField struct {
	isDim bool
	idx   int
}

func (s *Schema) sourceOf(name string) (sourceField, error) {
	if i := s.DimIndex(name); i >= 0 {
		return sourceField{isDim: true, idx: i}, nil
	}
	if i := s.AttrIndex(name); i >= 0 {
		return sourceField{idx: i}, nil
	}
	return sourceField{}, fmt.Errorf("array: target field %q not in source %s", name, s.Name)
}

// Validate checks the dimension for internal consistency.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("array: dimension with empty name")
	}
	if d.End < d.Start {
		return fmt.Errorf("array: dimension %s has End %d < Start %d", d.Name, d.End, d.Start)
	}
	if d.Extent() <= 0 {
		return fmt.Errorf("array: dimension %s range [%d,%d] has more than %d positions", d.Name, d.Start, d.End, int64(math.MaxInt64))
	}
	if d.ChunkInterval <= 0 {
		return fmt.Errorf("array: dimension %s has non-positive chunk interval %d", d.Name, d.ChunkInterval)
	}
	return nil
}

func (d Dimension) String() string {
	return fmt.Sprintf("%s=%d,%d,%d", d.Name, d.Start, d.End, d.ChunkInterval)
}

// Attribute describes one named, typed attribute stored in each occupied
// cell of an array.
type Attribute struct {
	Name string
	Type ScalarType
}

func (a Attribute) String() string { return a.Name + ":" + a.Type.String() }

// Schema is the logical schema of an array: its name, ordered dimensions,
// and attributes. The printable form matches the paper's notation:
//
//	A<v1:int, v2:float>[i=1,6,3, j=1,6,3]
type Schema struct {
	Name  string
	Dims  []Dimension
	Attrs []Attribute
}

// Validate checks the schema: at least one dimension, unique names across
// dimensions and attributes, valid dimension ranges, and a chunk grid
// whose positions a ChunkKey can number.
func (s *Schema) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("array: schema %s has no dimensions", s.Name)
	}
	seen := make(map[string]bool, len(s.Dims)+len(s.Attrs))
	for _, d := range s.Dims {
		if err := d.Validate(); err != nil {
			return err
		}
		if seen[d.Name] {
			return fmt.Errorf("array: schema %s repeats name %q", s.Name, d.Name)
		}
		seen[d.Name] = true
	}
	if err := checkGrid(s.Name, s.Dims); err != nil {
		return err
	}
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("array: schema %s has attribute with empty name", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("array: schema %s repeats name %q", s.Name, a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// DimIndex returns the position of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// HasDim reports whether the schema has a dimension with the given name.
func (s *Schema) HasDim(name string) bool { return s.DimIndex(name) >= 0 }

// HasAttr reports whether the schema has an attribute with the given name.
func (s *Schema) HasAttr(name string) bool { return s.AttrIndex(name) >= 0 }

// checkGrid reports an error when the number of chunk positions of the
// grid valid dims define, the product of their chunk counts, overflows an
// int64, so that every ChunkKey of the grid and TotalChunks fit.
func checkGrid(name string, dims []Dimension) error {
	n := uint64(1)
	for _, d := range dims {
		hi, lo := bits.Mul64(n, uint64(d.ChunkCount()))
		if hi != 0 || lo > math.MaxInt64 {
			return fmt.Errorf("array: schema %s has more than %d chunk positions", name, int64(math.MaxInt64))
		}
		n = lo
	}
	return nil
}

// TotalChunks returns the number of logical chunk positions of the array
// space (the product of per-dimension chunk counts). Validate guarantees
// it fits.
func (s *Schema) TotalChunks() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d.ChunkCount()
	}
	return n
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Name: s.Name}
	c.Dims = append([]Dimension(nil), s.Dims...)
	c.Attrs = append([]Attribute(nil), s.Attrs...)
	return c
}

// Rename returns a copy of the schema with a new array name.
func (s *Schema) Rename(name string) *Schema {
	c := s.Clone()
	c.Name = name
	return c
}

// String renders the schema in the paper's notation.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('<')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(">[")
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteByte(']')
	return b.String()
}
