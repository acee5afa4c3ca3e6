package sqltypes

import (
	"hash/maphash"
	"math"
	"slices"
)

// This file adds the columnar value representation used by the chunked
// storage layer and the vectorized executor: a Vec holds one column of up to
// a storage chunk's worth of values in a typed payload slice (int64 for
// INTEGER/BOOLEAN/DATE, float64 for DOUBLE, string for VARCHAR) plus a packed
// null bitmap. A column whose values mix payload kinds degrades to a generic
// []Value payload, so every value a row store can hold is representable; the
// typed form is the fast path, not a constraint.
//
// Concurrency contract (relied on by storage snapshots): a vector a reader can
// reach is sealed, and every mutator — AppendValue, AppendNull, Reset,
// Reserve, SetNull and the refill behind Refill*, Splat and Gather — panics on
// it; Frozen and Prefix copies keep the seal. A storage table's own tail is
// not sealed: appends never overwrite payload below the current length, and
// degrading to the generic payload builds a fresh slice, so Frozen (a header
// copy pinning the lengths, with the null bitmap cloned, its packed words
// being shared across rows) reads a consistent prefix. The payload is read
// through accessors; the seal does not stop a write into the slice one returns.
//
// The executor's scratch vectors are the other kind of Vec: owned by one
// worker, never sealed, refilled in place chunk after chunk through Reset, the
// Refill* family, Splat and Gather, all of which keep payload and bitmap
// capacity.

// Bitmap is a packed bitset, one bit per row index.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set. Indexes beyond the bitmap read as clear.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// Clone returns an independent copy of the bitmap.
func (b Bitmap) Clone() Bitmap {
	if b == nil {
		return nil
	}
	return append(Bitmap(nil), b...)
}

// Vec is one column vector: n values of a single kind (plus NULLs), or a
// generic []Value payload when the column mixes kinds. The zero Vec is an
// empty, untyped vector.
type Vec struct {
	kind    Kind // payload kind; KindNull until the first non-null append
	generic bool // payload lives in vals (mixed kinds)
	sealed  bool // readers may hold it: every mutator panics
	n       int

	// Payload slices; exactly one is active. ints backs KindInt, KindBool
	// and KindDate (the date encoding is the int64 yyyymmdd payload).
	ints   []int64
	floats []float64
	strs   []string
	vals   []Value

	// nulls marks NULL rows. Inactive (nil) when no NULL has been appended.
	nulls    Bitmap
	hasNulls bool
}

// Len returns the number of values.
func (v *Vec) Len() int { return v.n }

// Ints returns the payload of a KindInt, KindBool or KindDate vector, Floats
// of a KindFloat one, Strs of a KindString one and Any of a generic one; a
// typed payload holds a zero at a NULL. The slices are the vector's own and
// are read-only.
func (v *Vec) Ints() []int64     { return v.ints }
func (v *Vec) Floats() []float64 { return v.floats }
func (v *Vec) Strs() []string    { return v.strs }
func (v *Vec) Any() []Value      { return v.vals }

// Seal makes v read-only for good, before it is handed to readers: from now on
// every mutator panics.
func (v *Vec) Seal() { v.sealed = true }

// Sealed reports whether v is read-only.
func (v *Vec) Sealed() bool { return v.sealed }

// writable panics, naming the mutator op, if v is sealed.
func (v *Vec) writable(op string) {
	if v.sealed {
		panic("sqltypes: " + op + " on a sealed vector")
	}
}

// Kind returns the payload kind; KindNull for an untyped (all-NULL or empty)
// vector. Meaningless when Generic() is true.
func (v *Vec) Kind() Kind { return v.kind }

// Generic reports whether the payload is the generic []Value form.
func (v *Vec) Generic() bool { return v.generic }

// HasNulls reports whether any NULL has been appended. For generic vectors
// the per-element Values are authoritative; this is a fast pre-check only.
func (v *Vec) HasNulls() bool { return v.hasNulls }

// Nulls returns the null bitmap of a typed vector, bit i set when element i is
// NULL; empty when no NULL has been appended. It is the vector's own and is
// read-only.
func (v *Vec) Nulls() Bitmap { return v.nulls }

// IsNull reports whether element i is NULL.
func (v *Vec) IsNull(i int) bool {
	if v.generic {
		return v.vals[i].IsNull()
	}
	return v.hasNulls && v.nulls.Get(i)
}

// Value reconstructs element i as a Value, NULLs included. The result is
// identical (kind and payload) to the Value originally appended.
func (v *Vec) Value(i int) Value {
	if v.generic {
		return v.vals[i]
	}
	if v.hasNulls && v.nulls.Get(i) {
		return Null
	}
	switch v.kind {
	case KindInt:
		return Value{kind: KindInt, i: v.ints[i]}
	case KindBool:
		return Value{kind: KindBool, i: v.ints[i]}
	case KindDate:
		return Value{kind: KindDate, i: v.ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: v.floats[i]}
	case KindString:
		return Value{kind: KindString, s: v.strs[i]}
	default: // untyped: every element is NULL
		return Null
	}
}

// AppendNull appends a NULL, keeping the active payload aligned.
func (v *Vec) AppendNull() {
	v.writable("AppendNull")
	v.nulls.Set(v.n)
	v.hasNulls = true
	switch {
	case v.generic:
		v.vals = append(v.vals, Null)
	case v.kind == KindFloat:
		v.floats = append(v.floats, 0)
	case v.kind == KindString:
		v.strs = append(v.strs, "")
	case v.kind != KindNull:
		v.ints = append(v.ints, 0)
	}
	// Untyped vectors carry no payload; length is tracked by n alone and the
	// payload is zero-filled if a typed value arrives later.
	v.n++
}

// AppendValue appends x. The first non-null value fixes the vector's kind;
// appending a different kind later degrades the vector to the generic payload
// (a fresh slice — concurrent frozen readers keep their typed view).
func (v *Vec) AppendValue(x Value) {
	v.writable("AppendValue")
	if x.kind == KindNull {
		v.AppendNull()
		return
	}
	if v.generic {
		v.vals = append(v.vals, x)
		v.n++
		return
	}
	if v.kind == KindNull {
		// Adopt the kind; backfill zero payload for any leading NULLs.
		v.kind = x.kind
		switch x.kind {
		case KindFloat:
			v.floats = backfill(v.floats, v.n)
		case KindString:
			v.strs = backfill(v.strs, v.n)
		default:
			v.ints = backfill(v.ints, v.n)
		}
	}
	if x.kind != v.kind {
		v.degrade()
		v.vals = append(v.vals, x)
		v.n++
		return
	}
	switch v.kind {
	case KindFloat:
		v.floats = append(v.floats, x.f)
	case KindString:
		v.strs = append(v.strs, x.s)
	default:
		v.ints = append(v.ints, x.i)
	}
	v.n++
}

// AppendVec appends elements lo to hi of src: the payload slice at once when
// the kinds agree (or v is empty and untyped), else each element as
// AppendValue does.
func (v *Vec) AppendVec(src *Vec, lo, hi int) {
	v.writable("AppendVec")
	if lo == hi || v.generic || src.generic || src.kind == KindNull || v.kind != src.kind && (v.kind != KindNull || v.n > 0) {
		for i := lo; i < hi; i++ {
			v.AppendValue(src.Value(i))
		}
		return
	}
	v.kind = src.kind
	switch src.kind {
	case KindFloat:
		v.floats = append(v.floats, src.floats[lo:hi]...)
	case KindString:
		v.strs = append(v.strs, src.strs[lo:hi]...)
	default:
		v.ints = append(v.ints, src.ints[lo:hi]...)
	}
	for i := lo; src.hasNulls && i < hi; i++ {
		if src.nulls.Get(i) {
			v.SetNull(v.n + i - lo)
		}
	}
	v.n += hi - lo
}

// backfill returns n zero elements ahead of the first typed append: in s's
// spare capacity when Reset or Reserve left enough, else freshly allocated
// with room to grow.
func backfill[T any](s []T, n int) []T {
	if cap(s) == 0 || cap(s) < n {
		return make([]T, n, max(n, 64))
	}
	s = s[:n]
	clear(s)
	return s
}

// degrade converts the payload to the generic form in a fresh slice.
func (v *Vec) degrade() {
	anyv := make([]Value, v.n, v.n+64)
	for i := 0; i < v.n; i++ {
		anyv[i] = v.Value(i)
	}
	v.generic = true
	v.vals = anyv
	v.ints, v.floats, v.strs = nil, nil, nil
}

// Reset empties v for refilling through AppendValue/AppendNull, keeping the
// capacity of every payload and of the null bitmap.
func (v *Vec) Reset() {
	v.writable("Reset")
	*v = Vec{ints: v.ints[:0], floats: v.floats[:0], strs: v.strs[:0], vals: v.vals[:0], nulls: v.nulls[:0]}
}

// Reserve gives an empty vector room for n values of kind, so that appending
// them does not grow the payload step by step. It fixes nothing: the first
// non-null append still decides the vector's kind.
func (v *Vec) Reserve(kind Kind, n int) {
	v.writable("Reserve")
	switch kind {
	case KindNull:
	case KindFloat:
		v.floats = slices.Grow(v.floats, n)
	case KindString:
		v.strs = slices.Grow(v.strs, n)
	default:
		v.ints = slices.Grow(v.ints, n)
	}
}

// refill makes v an n-element vector of the given shape with no NULLs; the
// caller resizes the active payload with regrow.
func (v *Vec) refill(kind Kind, generic bool, n int) {
	v.writable("refill")
	v.kind, v.generic, v.n = kind, generic, n
	v.nulls, v.hasNulls = v.nulls[:0], false
}

// regrow resizes a scratch payload to n elements, reusing capacity. Contents
// are stale; growth doubles, so a payload settles after a few chunks.
func regrow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// RefillInts makes v a vector of n non-NULL values of an integer-class kind
// (KindInt, KindBool or KindDate) and returns the payload for the caller to
// fill: every element must be written, or marked with SetNull.
func (v *Vec) RefillInts(kind Kind, n int) []int64 {
	v.refill(kind, false, n)
	v.ints = regrow(v.ints, n)
	return v.ints
}

// RefillFloats is RefillInts for a KindFloat vector.
func (v *Vec) RefillFloats(n int) []float64 {
	v.refill(KindFloat, false, n)
	v.floats = regrow(v.floats, n)
	return v.floats
}

// RefillStrings is RefillInts for a KindString vector.
func (v *Vec) RefillStrings(n int) []string {
	v.refill(KindString, false, n)
	v.strs = regrow(v.strs, n)
	return v.strs
}

// RefillGeneric is RefillInts for the generic payload; NULL elements are NULL
// Values, so every element must be written.
func (v *Vec) RefillGeneric(n int) []Value {
	v.refill(KindNull, true, n)
	v.vals = regrow(v.vals, n)
	return v.vals
}

// SetNull marks element i of a refilled typed vector NULL.
func (v *Vec) SetNull(i int) {
	v.writable("SetNull")
	v.nulls.Set(i)
	v.hasNulls = true
}

// MarkNulls marks NULL each element of a refilled typed vector whose bit is
// set in b, a word at a time: a kernel's result takes its operands' NULLs.
func (v *Vec) MarkNulls(b Bitmap) {
	v.writable("MarkNulls")
	for len(v.nulls) < len(b) {
		v.nulls = append(v.nulls, 0)
	}
	for i, w := range b {
		v.nulls[i] |= w
		v.hasNulls = v.hasNulls || w != 0
	}
}

// Splat makes v n copies of x.
func (v *Vec) Splat(x Value, n int) {
	switch x.kind {
	case KindNull:
		v.refill(KindNull, false, n)
		for i := 0; i < n; i++ {
			v.SetNull(i)
		}
	case KindFloat:
		fill(v.RefillFloats(n), x.f)
	case KindString:
		fill(v.RefillStrings(n), x.s)
	default:
		fill(v.RefillInts(x.kind, n), x.i)
	}
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// Prefix returns a header over v's first n elements, sharing its payload and
// its seal.
func (v *Vec) Prefix(n int) Vec {
	p := *v
	p.n = n
	switch {
	case v.generic:
		p.vals = v.vals[:n]
	case v.kind == KindFloat:
		p.floats = v.floats[:n]
	case v.kind == KindString:
		p.strs = v.strs[:n]
	case v.kind != KindNull:
		p.ints = v.ints[:n]
	}
	return p
}

// Gather makes v the elements of src at the given indices, in that order. v
// must not be src.
func (v *Vec) Gather(src *Vec, idx []int32) {
	n := len(idx)
	switch {
	case src.generic:
		vals := v.RefillGeneric(n)
		for i, ri := range idx {
			vals[i] = src.vals[ri]
		}
		return
	case src.kind == KindNull: // untyped: every element NULL
		v.Splat(Null, n)
		return
	case src.kind == KindFloat:
		fs := v.RefillFloats(n)
		for i, ri := range idx {
			fs[i] = src.floats[ri]
		}
	case src.kind == KindString:
		ss := v.RefillStrings(n)
		for i, ri := range idx {
			ss[i] = src.strs[ri]
		}
	default:
		ints := v.RefillInts(src.kind, n)
		for i, ri := range idx {
			ints[i] = src.ints[ri]
		}
	}
	if src.hasNulls {
		for i, ri := range idx {
			if src.nulls.Get(int(ri)) {
				v.SetNull(i)
			}
		}
	}
}

// Frozen returns a sealed header copy safe to read concurrently with further
// appends to v: slice lengths pin the current prefix, and the null bitmap —
// whose packed words would otherwise be shared with rows appended later — is
// cloned.
func (v *Vec) Frozen() Vec {
	f := *v
	f.nulls, f.sealed = v.nulls.Clone(), true
	return f
}

// keySeed seeds the string hash of KeyCell: fixed for the process, so equal
// strings get equal words wherever they are normalised.
var keySeed = maphash.MakeSeed()

// KeyCell normalises v for hashing and grouping into a class and a 64-bit
// word (for the integer, boolean and date classes, the payload itself): two
// values are in one group exactly when class and word agree and, for the
// string class, the strings are equal (the word is only their hash) — exactly
// when Compare finds them equal. The classes are Compare's: an int and an
// integral float in int64 range are of the int class (1.0 groups with 1,
// -0.0 with 0); any other float is of the float class, where every NaN
// shares one word; NULL, a date, a string and a boolean are each a class of
// their own kind.
func (v Value) KeyCell() (Kind, int64) {
	switch v.kind {
	case KindNull:
		return KindNull, 0
	case KindFloat:
		return floatCell(v.f)
	case KindString:
		return KindString, int64(maphash.String(keySeed, v.s))
	default:
		return v.kind, v.i
	}
}

// FromKeyCell rebuilds a value of the given kind, not a string (a string's
// word is only its hash), from its KeyCell class and word. It is KeyCell's
// inverse except for what KeyCell folds: a float -0.0 comes back as 0.0 and
// every NaN as the one NaN of its word.
func FromKeyCell(kind, class Kind, word int64) Value {
	switch {
	case kind == KindFloat && class == KindInt:
		return Value{kind: KindFloat, f: float64(word)}
	case kind == KindFloat:
		return Value{kind: KindFloat, f: math.Float64frombits(uint64(word))}
	case kind == KindNull:
		return Null
	}
	return Value{kind: kind, i: word}
}

func floatCell(f float64) (Kind, int64) {
	switch {
	case f == math.Trunc(f) && f >= -1<<63 && f < 1<<63:
		return KindInt, int64(f)
	case f != f:
		f = math.NaN()
	}
	return KindFloat, int64(math.Float64bits(f))
}

// KeyCells is KeyCell for v's elements lo, lo+1, … — as many as classes is
// long — in a typed loop per payload kind. It reads v only.
func (v *Vec) KeyCells(lo int, classes []Kind, words []int64) {
	hi := lo + len(classes)
	switch {
	case v.generic:
		for i, x := range v.vals[lo:hi] {
			classes[i], words[i] = x.KeyCell()
		}
		return
	case v.kind == KindNull: // untyped: all NULL
		for i := range classes {
			classes[i], words[i] = KindNull, 0
		}
		return
	case v.kind == KindFloat:
		for i, f := range v.floats[lo:hi] {
			classes[i], words[i] = floatCell(f)
		}
	case v.kind == KindString:
		for i, s := range v.strs[lo:hi] {
			classes[i], words[i] = KindString, int64(maphash.String(keySeed, s))
		}
	default:
		for i, x := range v.ints[lo:hi] {
			classes[i], words[i] = v.kind, x
		}
	}
	if v.hasNulls {
		for i := range classes {
			if v.nulls.Get(lo + i) {
				classes[i], words[i] = KindNull, 0
			}
		}
	}
}
