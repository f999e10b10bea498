package join

import (
	"fmt"
	"strings"

	"shufflejoin/internal/array"
)

// Term is one side of an equi-join predicate pair: a named reference into a
// source schema, resolving to either a dimension or an attribute.
type Term struct {
	Array string // optional qualifier ("A" in A.v); empty means unqualified
	Name  string
}

func (t Term) String() string {
	if t.Array == "" {
		return t.Name
	}
	return t.Array + "." + t.Name
}

// PredPair is one equality (left term = right term) of the conjunction.
type PredPair struct {
	Left, Right Term
}

func (p PredPair) String() string { return p.Left.String() + " = " + p.Right.String() }

// Predicate is the conjunction of equality pairs P = {(l1,r1), ..., (ln,rn)}
// of Section 2.2, with every left term drawn from the left operand's schema
// and every right term from the right operand's.
type Predicate []PredPair

func (p Predicate) String() string {
	parts := make([]string, len(p))
	for i, pp := range p {
		parts[i] = pp.String()
	}
	return strings.Join(parts, " AND ")
}

// Ref is a resolved term: whether it names a dimension or attribute of its
// schema, and at which index.
type Ref struct {
	IsDim bool
	Index int
	Name  string
}

// Resolve binds a term against a schema.
func Resolve(s *array.Schema, t Term) (Ref, error) {
	if t.Array != "" && t.Array != s.Name {
		return Ref{}, fmt.Errorf("join: term %s does not reference array %s", t, s.Name)
	}
	if i := s.DimIndex(t.Name); i >= 0 {
		return Ref{IsDim: true, Index: i, Name: t.Name}, nil
	}
	if i := s.AttrIndex(t.Name); i >= 0 {
		return Ref{IsDim: false, Index: i, Name: t.Name}, nil
	}
	return Ref{}, fmt.Errorf("join: %s has no dimension or attribute %q", s.Name, t.Name)
}

// ResolvedPredicate binds every pair of a predicate to its schemas.
type ResolvedPredicate struct {
	Pred        Predicate
	Left, Right []Ref // parallel to Pred
}

// ResolvePredicate binds a predicate against the two source schemas.
func ResolvePredicate(l, r *array.Schema, p Predicate) (*ResolvedPredicate, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("join: empty predicate")
	}
	rp := &ResolvedPredicate{Pred: p}
	for _, pair := range p {
		lr, err := Resolve(l, pair.Left)
		if err != nil {
			return nil, err
		}
		rr, err := Resolve(r, pair.Right)
		if err != nil {
			return nil, err
		}
		rp.Left = append(rp.Left, lr)
		rp.Right = append(rp.Right, rr)
	}
	return rp, nil
}

// KeyOf extracts the comparison key of a cell for one side of the join:
// the values of that side's predicate terms, in predicate order. Dimension
// terms read coordinates; attribute terms read attribute values.
func KeyOf(refs []Ref, coords []int64, attrs []array.Value) []array.Value {
	key := make([]array.Value, len(refs))
	for i, ref := range refs {
		if ref.IsDim {
			key[i] = array.IntValue(coords[ref.Index])
		} else {
			key[i] = attrs[ref.Index]
		}
	}
	return key
}
