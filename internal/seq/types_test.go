package seq

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TInt: "int", TFloat: "float", TString: "string", TBool: "bool", TInvalid: "invalid",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestTypeNumeric(t *testing.T) {
	if !TInt.Numeric() || !TFloat.Numeric() {
		t.Error("int and float must be numeric")
	}
	if TString.Numeric() || TBool.Numeric() || TInvalid.Numeric() {
		t.Error("string/bool/invalid must not be numeric")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("Int round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip failed")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("AsFloat must widen ints")
	}
	if Str("x").AsStr() != "x" {
		t.Error("Str round trip failed")
	}
	if !Bool(true).AsBool() {
		t.Error("Bool round trip failed")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { Str("x").AsInt() })
	mustPanic("AsFloat on bool", func() { Bool(true).AsFloat() })
	mustPanic("AsStr on int", func() { Int(1).AsStr() })
	mustPanic("AsBool on float", func() { Float(1).AsBool() })
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-4), "-4"},
		{Float(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{Bool(false), "false"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Int(4)) {
		t.Error("int equality wrong")
	}
	if Int(3).Equal(Float(3)) {
		t.Error("Equal must not coerce int to float")
	}
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN must equal NaN under Equal (record identity)")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality wrong")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Error("bool equality wrong")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Float(2), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareIncomparable(t *testing.T) {
	if _, err := Int(1).Compare(Str("a")); err == nil {
		t.Error("comparing int with string must fail")
	}
	if _, err := Bool(true).Compare(Float(1)); err == nil {
		t.Error("comparing bool with float must fail")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Int(a).Compare(Int(b))
		y, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareConsistentWithFloatOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		got, err := Float(a).Compare(Float(b))
		if err != nil {
			return false
		}
		switch {
		case a < b:
			return got < 0
		case a > b:
			return got > 0
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueSize pins the packed layout: records, materialized results
// and decoded wire rows are slabs of Values, so a field added in the
// wrong place costs 8 bytes per value everywhere.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 40 {
		t.Fatalf("Value is %d bytes, want 40", got)
	}
}
