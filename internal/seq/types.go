// Package seq defines the core sequence data model of the SIGMOD 1994
// "Sequence Query Processing" paper: atomic value types, record schemas,
// records with explicit Null semantics, integer positions with spans, and
// the Sequence abstraction with its two access modes (stream and probed).
//
// A sequence is modeled as a function from integer positions to records,
// where positions that carry no data map to the distinguished Null record
// (represented in Go as a nil Record). Implementations never materialize
// Null records; they are a modeling device only (paper, footnote 2).
package seq

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies one of the indivisible atomic types that record
// attributes may take (paper §2: "indivisible atomic types of fixed size").
type Type uint8

// The atomic types supported by the model.
const (
	TInvalid Type = iota
	TInt          // 64-bit signed integer
	TFloat        // 64-bit IEEE floating point
	TString       // immutable byte string
	TBool         // boolean
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Numeric reports whether the type participates in arithmetic and in the
// numeric aggregate functions (Sum, Avg, Min, Max).
func (t Type) Numeric() bool { return t == TInt || t == TFloat }

// Value is a single atomic value: a tagged union over the atomic types.
// The zero Value has type TInvalid and is not a legal attribute value;
// record-level absence is expressed by the Null record, not by values.
//
// T and b sit side by side so the struct packs into 40 bytes: every
// boxed record, materialized result and decoded wire row is a slab of
// these.
type Value struct {
	T Type
	b bool
	i int64
	f float64
	s string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{T: TInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{T: TFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{T: TString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{T: TBool, b: v} }

// AsInt returns the integer content; it panics if the value is not TInt.
func (v Value) AsInt() int64 {
	if v.T != TInt {
		panic("seq: AsInt on " + v.T.String())
	}
	return v.i
}

// AsFloat returns the numeric content widened to float64; it panics if the
// value is not numeric.
func (v Value) AsFloat() float64 {
	switch v.T {
	case TFloat:
		return v.f
	case TInt:
		return float64(v.i)
	default:
		panic("seq: AsFloat on " + v.T.String())
	}
}

// AsStr returns the string content; it panics if the value is not TString.
func (v Value) AsStr() string {
	if v.T != TString {
		panic("seq: AsStr on " + v.T.String())
	}
	return v.s
}

// AsBool returns the boolean content; it panics if the value is not TBool.
func (v Value) AsBool() bool {
	if v.T != TBool {
		panic("seq: AsBool on " + v.T.String())
	}
	return v.b
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.T {
	case TInt:
		return strconv.FormatInt(v.i, 10)
	case TFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TString:
		return strconv.Quote(v.s)
	case TBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// Equal reports whether two values are identical in type and content.
// Unlike Compare, Equal does not coerce between numeric types.
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case TInt:
		return v.i == o.i
	case TFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case TString:
		return v.s == o.s
	case TBool:
		return v.b == o.b
	default:
		return true
	}
}

// Compare orders two values, coercing between TInt and TFloat. It returns
// a negative number, zero, or a positive number as v is less than, equal
// to, or greater than o. Comparing incomparable types returns an error.
func (v Value) Compare(o Value) (int, error) {
	switch {
	case v.T == TInt && o.T == TInt:
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		default:
			return 0, nil
		}
	case v.T.Numeric() && o.T.Numeric():
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case v.T == TString && o.T == TString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		default:
			return 0, nil
		}
	case v.T == TBool && o.T == TBool:
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("seq: cannot compare %s with %s", v.T, o.T)
	}
}
