// Package sqltypes implements the SQL value system used throughout the
// repository: typed datums (integer, float, string, boolean, date and NULL),
// three-valued logic, arithmetic, one value order (Compare) and the grouping
// keys that agree with it.
//
// Dates are stored as an int64 encoded as yyyymmdd (e.g. 19910412), which
// makes the date extraction functions YEAR, MONTH and DAY pure integer
// arithmetic and gives dates a natural total order. The textual form is
// ISO-8601 ("1991-04-12").
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. A NULL Value carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean (produced by predicates, storable).
	KindBool
	// KindDate is a calendar date encoded as yyyymmdd in the integer payload.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL datum. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewDate returns a date value from components. It does not validate that the
// combination is a real calendar date beyond simple range clamping; workload
// generators only produce valid dates.
func NewDate(year, month, day int) Value {
	return Value{kind: KindDate, i: int64(year)*10000 + int64(month)*100 + int64(day)}
}

// ParseDate parses an ISO "YYYY-MM-DD" string into a date value.
func ParseDate(s string) (Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Null, fmt.Errorf("sqltypes: malformed date %q", s)
	}
	y, err := strconv.Atoi(parts[0])
	if err != nil {
		return Null, fmt.Errorf("sqltypes: malformed date %q: %v", s, err)
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil {
		return Null, fmt.Errorf("sqltypes: malformed date %q: %v", s, err)
	}
	d, err := strconv.Atoi(parts[2])
	if err != nil {
		return Null, fmt.Errorf("sqltypes: malformed date %q: %v", s, err)
	}
	return CheckedDate(y, m, d)
}

// CheckedDate returns the date year-month-day, or an error when a component
// is out of range: a year of 0–9999, a month of 1–12, a day of 1–31.
func CheckedDate(year, month, day int) (Value, error) {
	if month < 1 || month > 12 || day < 1 || day > 31 || year < 0 || year > 9999 {
		return Null, fmt.Errorf("sqltypes: date out of range %04d-%02d-%02d", year, month, day)
	}
	return NewDate(year, month, day), nil
}

// MustParseDate is ParseDate that panics on error; for tests and literals.
func MustParseDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics unless the kind is KindInt,
// KindDate or KindBool.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt, KindDate, KindBool:
		return v.i
	default:
		panic(fmt.Sprintf("sqltypes: Int() on %s value", v.kind))
	}
}

// Float returns the float payload, coercing integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("sqltypes: Float() on %s value", v.kind))
	}
}

// Str returns the string payload. It panics unless the kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("sqltypes: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless the kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("sqltypes: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// DateYear returns the year component of a date value.
func (v Value) DateYear() int64 { return v.Int() / 10000 }

// DateMonth returns the month component of a date value.
func (v Value) DateMonth() int64 { return (v.Int() / 100) % 100 }

// DateDay returns the day component of a date value.
func (v Value) DateDay() int64 { return v.Int() % 100 }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and for deterministic test output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		// Trim trailing zeros but keep at least one decimal so floats are
		// visually distinct from ints in experiment output; NaN, Infinity and
		// -Infinity are as PostgreSQL writes them.
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		switch {
		case math.IsInf(v.f, 0):
			return strings.Replace(strings.TrimPrefix(s, "+"), "Inf", "Infinity", 1)
		case !strings.ContainsAny(s, ".eEN"):
			s += ".0"
		}
		return s
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return fmt.Sprintf("%04d-%02d-%02d", v.DateYear(), v.DateMonth(), v.DateDay())
	default:
		return fmt.Sprintf("<bad kind %d>", v.kind)
	}
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	default:
		return v.String()
	}
}

// Comparable reports whether values of kinds a and b compare: two numbers
// (an int or a float), two dates, two strings or two booleans. NULL compares
// with nothing; callers implement SQL NULL semantics above this level. It is
// exactly the pairs on which Compare returns no error.
func Comparable(a, b Kind) bool {
	return a == b && a != KindNull || Value{kind: a}.IsNumeric() && Value{kind: b}.IsNumeric()
}

// Compare orders two values of comparable kinds, returning -1, 0 or +1, and
// an error for any other pair. It is a total order on each family of
// Comparable, and the equality of grouping: Compare(a, b) == 0 exactly when
// a and b have one KeyCell. An int and a float compare exactly, not through
// a float64 rounding; -0.0 equals 0; every NaN is one value, above every
// number, +Inf included (PostgreSQL's rule). A date is not a number: it
// compares with dates only.
func Compare(a, b Value) (int, error) {
	switch {
	case !Comparable(a.kind, b.kind):
		return 0, fmt.Errorf("sqltypes: cannot compare %s with %s", a.kind, b.kind)
	case a.kind == KindString:
		return strings.Compare(a.s, b.s), nil
	case a.kind == KindFloat && b.kind == KindFloat:
		return CompareNum(a.f, b.f), nil
	case a.kind == KindFloat:
		return -CompareIntFloat(b.i, a.f), nil
	case b.kind == KindFloat:
		return CompareIntFloat(a.i, b.f), nil
	default:
		return CompareNum(a.i, b.i), nil
	}
}

// Less reports whether a sorts before b, two payloads of one type, under
// Compare's rule: NaN, the one value unequal to itself, sorts above every
// number and equals every NaN. On ints and strings it is a < b.
func Less[T int64 | float64 | string](a, b T) bool { return a < b || b != b && a == a }

// CompareNum is Compare on two payloads of one numeric type.
func CompareNum[T int64 | float64](a, b T) int {
	switch {
	case Less(a, b):
		return -1
	case Less(b, a):
		return 1
	}
	return 0
}

// CompareIntFloat is Compare on an int payload and a float, exactly: the
// float's integral part is compared as an int64 when it is in range.
func CompareIntFloat(i int64, f float64) int {
	if t := math.Trunc(f); t >= -1<<63 && t < 1<<63 {
		if c := CompareNum(i, int64(t)); c != 0 {
			return c
		}
		return CompareNum(t, f)
	}
	return CompareNum(0, f) // f is NaN or beyond the int64 range
}

// Identical reports grouping equality: two NULLs are identical, a NULL and a
// value are not, and two values are when they have one KeyCell — when
// Compare finds them equal (so 1 groups with 1.0).
func Identical(a, b Value) bool {
	if a.kind == KindString || b.kind == KindString {
		return a.kind == b.kind && a.s == b.s // a string's word is only its hash
	}
	ca, wa := a.KeyCell()
	cb, wb := b.KeyCell()
	return ca == cb && wa == wb
}

// Same reports whether a and b are one value: one kind and one payload, bit
// for bit (so -0.0 is not 0.0, and a NaN is the NaN of its bits).
func Same(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// GroupKey renders a value for use in composite grouping keys: two values
// map to one string exactly when they are Identical. It is a decimal encoding
// of its own, the reference KeyCell is tested against, in the same classes.
func (v Value) GroupKey() string {
	return string(v.AppendGroupKey(nil))
}

// AppendGroupKey appends the value's grouping key to buf and returns the
// extended slice. It is the allocation-free form of GroupKey for hot loops
// that build composite keys into a reusable scratch buffer.
func (v Value) AppendGroupKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, '\x00', 'N')
	case KindInt:
		return strconv.AppendInt(append(buf, '\x01'), v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= -1<<63 && v.f < 1<<63 {
			return strconv.AppendInt(append(buf, '\x01'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(buf, '\x02'), v.f, 'b', -1, 64)
	case KindString:
		return append(append(buf, '\x03'), v.s...)
	case KindBool:
		return strconv.AppendInt(append(buf, '\x04'), v.i, 10)
	case KindDate:
		return strconv.AppendInt(append(buf, '\x05'), v.i, 10)
	default:
		return append(buf, '\x7f', '?')
	}
}

// Arithmetic errors.
var errArithNull = fmt.Errorf("sqltypes: arithmetic on NULL (caller must short-circuit)")

func numericPair(a, b Value) (ai, bi int64, af, bf float64, isInt bool, err error) {
	if a.IsNull() || b.IsNull() {
		return 0, 0, 0, 0, false, errArithNull
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return 0, 0, 0, 0, false, fmt.Errorf("sqltypes: arithmetic on %s and %s", a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		return a.i, b.i, 0, 0, true, nil
	}
	return 0, 0, a.Float(), b.Float(), false, nil
}

// Add returns a+b with int/float coercion. NULL inputs yield NULL.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, bi, af, bf, isInt, err := numericPair(a, b)
	if err != nil {
		return Null, err
	}
	if isInt {
		return NewInt(ai + bi), nil
	}
	return NewFloat(af + bf), nil
}

// Sub returns a-b with int/float coercion. NULL inputs yield NULL.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, bi, af, bf, isInt, err := numericPair(a, b)
	if err != nil {
		return Null, err
	}
	if isInt {
		return NewInt(ai - bi), nil
	}
	return NewFloat(af - bf), nil
}

// Mul returns a*b with int/float coercion. NULL inputs yield NULL.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, bi, af, bf, isInt, err := numericPair(a, b)
	if err != nil {
		return Null, err
	}
	if isInt {
		return NewInt(ai * bi), nil
	}
	return NewFloat(af * bf), nil
}

// Div returns a/b. Integer division truncates (SQL integer division);
// division by zero returns an error. NULL inputs yield NULL.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, bi, af, bf, isInt, err := numericPair(a, b)
	if err != nil {
		return Null, err
	}
	if isInt {
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: integer division by zero")
		}
		return NewInt(ai / bi), nil
	}
	if bf == 0 {
		return Null, fmt.Errorf("sqltypes: division by zero")
	}
	return NewFloat(af / bf), nil
}

// Mod returns a%b for integers. NULL inputs yield NULL.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.kind != KindInt || b.kind != KindInt {
		return Null, fmt.Errorf("sqltypes: MOD on %s and %s", a.kind, b.kind)
	}
	if b.i == 0 {
		return Null, fmt.Errorf("sqltypes: modulo by zero")
	}
	return NewInt(a.i % b.i), nil
}

// Concat returns the string concatenation a || b. NULL inputs yield NULL.
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.Kind() != KindString || b.Kind() != KindString {
		return Null, fmt.Errorf("sqltypes: || on %s and %s", a.Kind(), b.Kind())
	}
	return NewString(a.Str() + b.Str()), nil
}

// LikeMatch implements SQL LIKE: % matches any run (including empty), _
// matches exactly one character. Matching is byte-oriented (the workloads are
// ASCII).
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Neg returns -a. NULL yields NULL.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-a.i), nil
	case KindFloat:
		return NewFloat(-a.f), nil
	default:
		return Null, fmt.Errorf("sqltypes: negation of %s", a.kind)
	}
}
