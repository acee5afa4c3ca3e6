package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.String() != "NULL" {
		t.Fatalf("NULL renders as %q", v.String())
	}
}

func TestDateComponents(t *testing.T) {
	d := NewDate(1991, 4, 12)
	if d.DateYear() != 1991 || d.DateMonth() != 4 || d.DateDay() != 12 {
		t.Fatalf("components of %v wrong", d)
	}
	if d.String() != "1991-04-12" {
		t.Fatalf("String() = %q", d.String())
	}
	if d.SQLLiteral() != "DATE '1991-04-12'" {
		t.Fatalf("SQLLiteral() = %q", d.SQLLiteral())
	}
}

func TestParseDate(t *testing.T) {
	good := map[string]Value{
		"1991-04-12": NewDate(1991, 4, 12),
		"2000-12-31": NewDate(2000, 12, 31),
		"0001-01-01": NewDate(1, 1, 1),
	}
	for s, want := range good {
		got, err := ParseDate(s)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", s, err)
			continue
		}
		if !Identical(got, want) {
			t.Errorf("ParseDate(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "1991", "1991-13-01", "1991-00-10", "1991-01-32", "abcd-ef-gh", "1991-1", "19910412"} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) should fail", s)
		}
	}
}

// TestCompareMixedNumeric pins the float rule: an int meets a float exactly,
// -0.0 equals 0, and NaN equals NaN and sorts above +Inf.
func TestCompareMixedNumeric(t *testing.T) {
	nan, inf := NewFloat(math.NaN()), NewFloat(math.Inf(1))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{NewInt(2), NewFloat(2.0), 0}, {NewFloat(1.5), NewInt(2), -1},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1}, {NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
		{nan, nan, 0}, {nan, inf, 1}, {NewInt(math.MaxInt64), nan, -1}, {NewFloat(1), nan, -1},
	} {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(NewInt(1), NewString("1")); err == nil {
		t.Fatal("int vs string should error")
	}
	if _, err := Compare(Null, NewInt(1)); err == nil {
		t.Fatal("NULL comparison should error (caller handles 3VL)")
	}
	// A date is not the number of its payload: it compares with dates only.
	for _, n := range []Value{NewInt(19910412), NewFloat(19910412)} {
		if _, err := Compare(NewDate(1991, 4, 12), n); err == nil {
			t.Errorf("a date compared with %v (%v)", n, n.Kind())
		}
	}
}

func TestEqualVsIdenticalOnNull(t *testing.T) {
	if _, err := Compare(Null, Null); err == nil {
		t.Fatal("SQL equality: NULL = NULL is not true, so Compare refuses it")
	}
	if !Identical(Null, Null) {
		t.Fatal("grouping: NULL is identical to NULL")
	}
	if Identical(Null, NewInt(0)) {
		t.Fatal("NULL is not identical to 0")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Identical(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Sub(NewInt(2), NewInt(5))
	check(v, err, NewInt(-3))
	v, err = Mul(NewFloat(1.5), NewInt(4))
	check(v, err, NewFloat(6))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3)) // integer division truncates
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	v, err = Mod(NewInt(1993), NewInt(100))
	check(v, err, NewInt(93))
	v, err = Neg(NewInt(5))
	check(v, err, NewInt(-5))

	// NULL propagation.
	v, err = Add(Null, NewInt(1))
	check(v, err, Null)
	v, err = Mul(NewInt(1), Null)
	check(v, err, Null)

	// Errors.
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Fatal("integer division by zero must error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Fatal("float division by zero must error")
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Fatal("modulo by zero must error")
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Fatal("string arithmetic must error")
	}
	if _, err := Neg(NewString("a")); err == nil {
		t.Fatal("string negation must error")
	}
}

func TestGroupKeyDistinguishesKinds(t *testing.T) {
	vals := []Value{
		Null, NewInt(1), NewFloat(1.5), NewString("1"), NewBool(true),
		NewDate(1991, 1, 1), NewString(""), NewInt(0), NewBool(false),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.GroupKey()
		if prev, ok := seen[k]; ok {
			t.Errorf("GroupKey collision: %v and %v → %q", prev, v, k)
		}
		seen[k] = v
	}
	// Numerically equal int/float share a key (GROUP BY semantics).
	if NewInt(1).GroupKey() != NewFloat(1.0).GroupKey() {
		t.Error("1 and 1.0 must group together")
	}
}

// Property: Compare is a total order over same-kind values — antisymmetric
// and transitive.
func TestCompareOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Value {
		switch rng.Intn(3) {
		case 0:
			return NewInt(int64(rng.Intn(20) - 10))
		case 1:
			return NewFloat(float64(rng.Intn(40))/4 - 5)
		default:
			return NewDate(1990+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28))
		}
	}
	sameKindCmp := func(a, b Value) (int, bool) {
		c, err := Compare(a, b)
		return c, err == nil
	}
	for i := 0; i < 2000; i++ {
		a, b, c := gen(), gen(), gen()
		if ab, ok := sameKindCmp(a, b); ok {
			ba, _ := sameKindCmp(b, a)
			if ab != -ba {
				t.Fatalf("antisymmetry violated: %v vs %v: %d, %d", a, b, ab, ba)
			}
			if bc, ok2 := sameKindCmp(b, c); ok2 && ab <= 0 && bc <= 0 {
				if ac, ok3 := sameKindCmp(a, c); ok3 && ac > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// Property (testing/quick): int arithmetic matches Go semantics.
func TestQuickIntArithmetic(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := NewInt(int64(a)), NewInt(int64(b))
		s, err := Add(x, y)
		if err != nil || s.Int() != int64(a)+int64(b) {
			return false
		}
		d, err := Sub(x, y)
		if err != nil || d.Int() != int64(a)-int64(b) {
			return false
		}
		m, err := Mul(x, y)
		if err != nil || m.Int() != int64(a)*int64(b) {
			return false
		}
		if b != 0 {
			q, err := Div(x, y)
			if err != nil || q.Int() != int64(a)/int64(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): GroupKey is injective over int values and
// consistent with Identical.
func TestQuickGroupKeyConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return (x.GroupKey() == y.GroupKey()) == Identical(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatStringRendering(t *testing.T) {
	if NewFloat(2).String() != "2.0" {
		t.Errorf("float 2 renders as %q, want 2.0", NewFloat(2).String())
	}
	if NewFloat(2.5).String() != "2.5" {
		t.Errorf("float 2.5 renders as %q", NewFloat(2.5).String())
	}
	for f, want := range map[float64]string{math.NaN(): "NaN", math.Inf(1): "Infinity", math.Inf(-1): "-Infinity"} {
		if got := NewFloat(f).String(); got != want {
			t.Errorf("float %v renders as %q, want %q", f, got, want)
		}
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	if got := NewString("O'Hara").SQLLiteral(); got != "'O''Hara'" {
		t.Fatalf("quoting: %q", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Int on string", func() { _ = NewString("x").Int() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Float on string", func() { NewString("x").Float() })
}

func TestTriLogic(t *testing.T) {
	tt := []struct {
		a, b    Tri
		and, or Tri
	}{
		{True, True, True, True},
		{True, False, False, True},
		{True, Unknown, Unknown, True},
		{False, False, False, False},
		{False, Unknown, False, Unknown},
		{Unknown, Unknown, Unknown, Unknown},
	}
	for _, c := range tt {
		if got := c.a.And(c.b); got != c.and {
			t.Errorf("%v AND %v = %v, want %v", c.a, c.b, got, c.and)
		}
		if got := c.b.And(c.a); got != c.and {
			t.Errorf("AND not commutative for %v, %v", c.a, c.b)
		}
		if got := c.a.Or(c.b); got != c.or {
			t.Errorf("%v OR %v = %v, want %v", c.a, c.b, got, c.or)
		}
		if got := c.b.Or(c.a); got != c.or {
			t.Errorf("OR not commutative for %v, %v", c.a, c.b)
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT table wrong")
	}
	// De Morgan over the whole domain.
	all := []Tri{True, False, Unknown}
	for _, a := range all {
		for _, b := range all {
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan fails for %v, %v", a, b)
			}
		}
	}
}

func TestTriValueRoundTrip(t *testing.T) {
	if TriFromValue(True.Value()) != True ||
		TriFromValue(False.Value()) != False ||
		TriFromValue(Unknown.Value()) != Unknown {
		t.Fatal("Tri ↔ Value round trip broken")
	}
}

// quick.Value support sanity: Values generated reflectively should never
// break GroupKey (guards the encoding against new kinds).
func TestQuickGroupKeyTotal(t *testing.T) {
	f := func(kind uint8, i int64, s string) bool {
		var v Value
		switch kind % 5 {
		case 0:
			v = Null
		case 1:
			v = NewInt(i)
		case 2:
			v = NewFloat(float64(i) / 7)
		case 3:
			v = NewString(s)
		case 4:
			v = NewBool(i%2 == 0)
		}
		return v.GroupKey() != ""
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(uint8(r.Intn(256)))
		vs[1] = reflect.ValueOf(r.Int63() - r.Int63())
		vs[2] = reflect.ValueOf("s" + string(rune('a'+r.Intn(26))))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"hello", "hell", false},
		{"hello", "hello_", false},
		{"hello", "%x%", false},
		{"aaa", "%a%a%", true},
		{"ab", "%a%a%", false},
		{"mississippi", "%iss%iss%", true},
		{"TV", "TV", true},
		{"TV", "tv", false}, // LIKE is case-sensitive
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestConcat(t *testing.T) {
	v, err := Concat(NewString("a"), NewString("b"))
	if err != nil || v.Str() != "ab" {
		t.Fatalf("concat: %v %v", v, err)
	}
	v, err = Concat(Null, NewString("b"))
	if err != nil || !v.IsNull() {
		t.Fatalf("null concat: %v %v", v, err)
	}
	if _, err := Concat(NewInt(1), NewString("b")); err == nil {
		t.Fatal("int concat must error")
	}
}

func TestAppendGroupKeyMatchesGroupKey(t *testing.T) {
	vals := []Value{
		Null,
		NewInt(0), NewInt(-7), NewInt(1 << 40),
		NewFloat(1), NewFloat(1.5), NewFloat(-0.25), NewFloat(1e18),
		NewString(""), NewString("ca"), NewString("CA"),
		NewBool(true), NewBool(false),
		MustParseDate("1991-04-12"),
	}
	buf := make([]byte, 0, 64)
	for _, v := range vals {
		buf = buf[:0]
		buf = v.AppendGroupKey(buf)
		if string(buf) != v.GroupKey() {
			t.Errorf("AppendGroupKey(%v) = %q, GroupKey = %q", v, buf, v.GroupKey())
		}
	}
	// Int and equal-valued float share a key; distinct values never collide.
	if NewInt(1).GroupKey() != NewFloat(1).GroupKey() {
		t.Error("1 and 1.0 must share a grouping key")
	}
	seen := map[string]Value{}
	for _, v := range vals[:10] { // distinct values above
		k := v.GroupKey()
		if prev, ok := seen[k]; ok && !Identical(prev, v) {
			t.Errorf("collision: %v and %v both map to %q", prev, v, k)
		}
		seen[k] = v
	}
}

// orderProbe is a value set at the edges of the one value order: NaN
// payloads, signed zeros, infinities, 2^53 ± 1 and the int64 range as ints
// and as floats, fractions around them, dates and the ints and floats of
// their payloads, strings, booleans and NULL.
func orderProbe() []Value {
	const p53 = 1 << 53
	vals := []Value{
		Null,
		NewFloat(math.NaN()), NewFloat(-math.NaN()),
		NewFloat(math.Float64frombits(0x7ff0000000000001)), NewFloat(math.Float64frombits(0xfff8000000000042)),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewInt(0),
		NewInt(1), NewFloat(1), NewFloat(1.5), NewFloat(0.5), NewFloat(-0.5), NewInt(-1), NewFloat(-1),
		NewInt(p53 - 1), NewInt(p53), NewInt(p53 + 1),
		NewFloat(p53 - 1), NewFloat(p53), NewFloat(p53 + 2), NewFloat(p53 - 0.5),
		NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), NewInt(math.MinInt64), NewInt(math.MinInt64 + 1),
		NewFloat(1 << 63), NewFloat(-1 << 63), NewFloat(math.Nextafter(-1<<63, 0)), NewFloat(math.Nextafter(-1<<63, -2e19)),
		NewFloat(1e15), NewFloat(1e15 + 0.5), NewFloat(1e18), NewFloat(-1e18), NewInt(1e18),
		NewDate(1991, 4, 12), NewInt(19910412), NewFloat(19910412), NewFloat(19910412.5), NewDate(1991, 4, 13),
		NewString(""), NewString("1"), NewString("a"), NewString("b"),
		NewBool(false), NewBool(true),
	}
	return vals
}

// TestCompareIsOneValueOrder: on every pair of the probe set, Comparable says
// whether Compare answers; Compare is reflexive, antisymmetric and
// transitive; and Compare(a, b) == 0 exactly when the KeyCells are equal,
// exactly when the GroupKeys are, exactly when Identical says so.
func TestCompareIsOneValueOrder(t *testing.T) {
	vals := orderProbe()
	cmpOf := func(a, b Value) (int, bool) {
		c, err := Compare(a, b)
		if ok := Comparable(a.Kind(), b.Kind()); ok != (err == nil) {
			t.Fatalf("Comparable(%v, %v) = %v, but Compare's error is %v", a.Kind(), b.Kind(), ok, err)
		}
		return c, err == nil
	}
	for _, a := range vals {
		if c, ok := cmpOf(a, a); !a.IsNull() && (!ok || c != 0) {
			t.Errorf("Compare(%v, %v) = %d, %v: not reflexive", a, a, c, ok)
		}
		for _, b := range vals {
			ab, ok := cmpOf(a, b)
			if ba, _ := cmpOf(b, a); ab != -ba {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			ca, wa := a.KeyCell()
			cb, wb := b.KeyCell()
			cells := ca == cb && wa == wb && (ca != KindString || a.Str() == b.Str())
			if same := ok && ab == 0 || a.IsNull() && b.IsNull(); cells != same ||
				(a.GroupKey() == b.GroupKey()) != same || Identical(a, b) != same {
				t.Errorf("%v (%v) and %v (%v): Compare %d, %v; KeyCells equal %v; GroupKeys equal %v; Identical %v",
					a, a.Kind(), b, b.Kind(), ab, ok, cells, a.GroupKey() == b.GroupKey(), Identical(a, b))
			}
			if !ok {
				continue
			}
			for _, c := range vals {
				bc, ok := cmpOf(b, c)
				if !ok || ab > 0 || bc > 0 {
					continue
				}
				if ac, _ := cmpOf(a, c); ac > 0 || (ab < 0 || bc < 0) && ac == 0 || ab == 0 && bc == 0 && ac != 0 {
					t.Errorf("not transitive: %v ≤ %v ≤ %v (%d, %d) but Compare(%v, %v) = %d", a, b, c, ab, bc, a, c, ac)
				}
			}
		}
	}
}
