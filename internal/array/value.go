// Package array implements the Array Data Model (ADM) used by the shuffle
// join framework: multidimensional sparse arrays whose cells are clustered
// into chunks, sorted in C-order on their dimensions, with vertically
// partitioned attribute storage.
//
// The model follows Section 2.1 of "Skew-Aware Join Optimization for Array
// Databases" (SIGMOD 2015): an array has any number of named, ordered
// dimensions, each a contiguous integer range divided into logical chunks by
// a chunk interval, plus one or more typed attributes stored per occupied
// cell. Only occupied cells are stored, which makes the representation
// efficient for sparse arrays.
package array

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ScalarType enumerates the attribute value types supported by the ADM.
type ScalarType uint8

const (
	// TypeInt64 is a 64-bit signed integer attribute ("int" in schemas).
	TypeInt64 ScalarType = iota
	// TypeFloat64 is a 64-bit IEEE float attribute ("float" in schemas).
	TypeFloat64
	// TypeString is a variable-length string attribute ("string" in schemas).
	TypeString
)

// String returns the schema spelling of the type.
func (t ScalarType) String() string {
	switch t {
	case TypeInt64:
		return "int"
	case TypeFloat64:
		return "float"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("ScalarType(%d)", uint8(t))
	}
}

// ParseScalarType converts a schema spelling ("int", "float", "string",
// with "int64"/"double" accepted as aliases) to a ScalarType.
func ParseScalarType(s string) (ScalarType, error) {
	switch s {
	case "int", "int64", "integer":
		return TypeInt64, nil
	case "float", "float64", "double":
		return TypeFloat64, nil
	case "string":
		return TypeString, nil
	default:
		return 0, fmt.Errorf("array: unknown scalar type %q", s)
	}
}

// Value is a scalar attribute value: a tagged union over the ADM types.
// The zero Value is the integer 0.
type Value struct {
	Kind ScalarType
	Int  int64
	F    float64
	Str  string
}

// IntValue returns an integer Value.
func IntValue(v int64) Value { return Value{Kind: TypeInt64, Int: v} }

// FloatValue returns a float Value.
func FloatValue(v float64) Value { return Value{Kind: TypeFloat64, F: v} }

// StringValue returns a string Value.
func StringValue(v string) Value { return Value{Kind: TypeString, Str: v} }

// String formats the value the way it would appear in query output.
func (v Value) String() string {
	switch v.Kind {
	case TypeInt64:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.Str
	default:
		return "?"
	}
}

// Equal reports whether two values compare equal under the equi-join
// semantics of the ADM. Values of different kinds are compared numerically
// when both are numeric (an int attribute may join a float attribute);
// otherwise they are unequal.
func (v Value) Equal(o Value) bool {
	if v.Kind == o.Kind {
		switch v.Kind {
		case TypeInt64:
			return v.Int == o.Int
		case TypeFloat64:
			return v.F == o.F
		case TypeString:
			return v.Str == o.Str
		}
		return false
	}
	if v.Kind == TypeString || o.Kind == TypeString {
		return false
	}
	return v.AsFloat() == o.AsFloat()
}

// Compare orders two values: -1, 0, +1. Numeric kinds compare numerically;
// strings compare lexicographically; a numeric value sorts before a string.
func (v Value) Compare(o Value) int {
	vs, os := v.Kind == TypeString, o.Kind == TypeString
	switch {
	case vs && os:
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		}
		return 0
	case vs:
		return 1
	case os:
		return -1
	case v.Kind == TypeInt64 && o.Kind == TypeInt64:
		// Exact: two int64s a float64 cannot tell apart (beyond 2^53)
		// are still different keys.
		return cmp.Compare(v.Int, o.Int)
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// AsFloat converts a numeric value to float64. Strings parse if possible,
// otherwise NaN.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case TypeInt64:
		return float64(v.Int)
	case TypeFloat64:
		return v.F
	case TypeString:
		if !mayParseFloat(v.Str) {
			return math.NaN()
		}
		f, err := strconv.ParseFloat(v.Str, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	return math.NaN()
}

// mayParseFloat reports false when strconv.ParseFloat is certain to
// fail on s, which spares AsFloat the error ParseFloat would allocate:
// ParseFloat takes an optional sign, then a digit or '.', or "inf" or
// "infinity" in any case, or, with no sign, "nan" in any case.
func mayParseFloat(s string) bool {
	t := strings.TrimPrefix(strings.TrimPrefix(s, "+"), "-")
	switch {
	case t == "":
		return false
	case '0' <= t[0] && t[0] <= '9' || t[0] == '.':
		return true
	case t == s && strings.EqualFold(t, "nan"):
		return true
	}
	return strings.EqualFold(t, "inf") || strings.EqualFold(t, "infinity")
}

// AsInt converts a numeric value to int64, truncating floats. String values
// parse if possible, otherwise 0.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case TypeInt64:
		return v.Int
	case TypeFloat64:
		return int64(v.F)
	case TypeString:
		n, err := strconv.ParseInt(v.Str, 10, 64)
		if err != nil {
			return 0
		}
		return n
	}
	return 0
}

// HashKey returns a canonical comparable key for use in join hash maps:
// numerically equal int and float values share a key. It is HashInt,
// HashFloat or HashString by kind, which the columnar join kernels call
// on typed columns directly.
func (v Value) HashKey() uint64 {
	switch v.Kind {
	case TypeInt64:
		return HashInt(v.Int)
	case TypeFloat64:
		return HashFloat(v.F)
	case TypeString:
		return HashString(v.Str)
	}
	return 0
}

// HashInt is HashKey of an int64 value.
func HashInt(x int64) uint64 { return mix64(uint64(x)) }

// HashFloat is HashKey of a float64 value: an integral float hashes as
// the int64 it equals.
func HashFloat(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return mix64(uint64(int64(f)))
	}
	return mix64(math.Float64bits(f))
}

// HashString is HashKey of a string value (FNV-1a).
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is a 64-bit finalizer (splitmix64) giving well-spread hash values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
