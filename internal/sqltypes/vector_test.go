package sqltypes

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewInt(rng.Int63n(2000) - 1000)
	case 2:
		return NewFloat(rng.NormFloat64() * 100)
	case 3:
		return NewString(string(rune('a' + rng.Intn(26))))
	case 4:
		return NewBool(rng.Intn(2) == 0)
	default:
		return NewDate(1990+rng.Intn(10), 1+rng.Intn(12), 1+rng.Intn(28))
	}
}

// TestVecRoundTrip pins the core Vec contract: appended values come back
// identical (kind and payload), and the batch normalisation KeyCells agrees
// element by element with the one-row Value.KeyCell — including across
// kind-degradations to the generic payload.
func TestVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var v Vec
		vals := make([]Value, 0, 50)
		n := rng.Intn(50)
		homogeneous := rng.Intn(2) == 0
		var pick func() Value
		if homogeneous {
			proto := randValue(rng)
			pick = func() Value {
				if rng.Intn(5) == 0 {
					return Null
				}
				switch proto.Kind() {
				case KindInt:
					return NewInt(rng.Int63n(100))
				case KindFloat:
					return NewFloat(rng.Float64())
				case KindString:
					return NewString(string(rune('a' + rng.Intn(26))))
				case KindBool:
					return NewBool(rng.Intn(2) == 0)
				case KindDate:
					return NewDate(1991, 1+rng.Intn(12), 1+rng.Intn(28))
				default:
					return Null
				}
			}
		} else {
			pick = func() Value { return randValue(rng) }
		}
		for i := 0; i < n; i++ {
			x := pick()
			vals = append(vals, x)
			v.AppendValue(x)
		}
		if v.Len() != len(vals) {
			t.Fatalf("trial %d: Len %d, want %d", trial, v.Len(), len(vals))
		}
		classes, words := make([]Kind, len(vals)), make([]int64, len(vals))
		lo := len(vals) / 3 // cells of a sub-range land at its start
		v.KeyCells(lo, classes[lo:], words[lo:])
		v.KeyCells(0, classes[:lo], words[:lo])
		for i, want := range vals {
			got := v.Value(i)
			if got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("trial %d: Value(%d) = %v (%s), want %v (%s)",
					trial, i, got, got.Kind(), want, want.Kind())
			}
			if got.IsNull() != v.IsNull(i) {
				t.Fatalf("trial %d: IsNull(%d) mismatch", trial, i)
			}
			if wc, ww := want.KeyCell(); classes[i] != wc || words[i] != ww {
				t.Fatalf("trial %d: key cell of %v: (%s, %#x) vs (%s, %#x)", trial, want, classes[i], words[i], wc, ww)
			}
		}
	}
}

// TestVecFrozenIsolation pins the snapshot contract: a Frozen header keeps
// reading its prefix — values and null bits — unchanged while the live vector
// takes further appends, including a kind-degradation.
func TestVecFrozenIsolation(t *testing.T) {
	var v Vec
	v.AppendValue(NewInt(1))
	v.AppendNull()
	v.AppendValue(NewInt(3))
	f := v.Frozen()

	// Appends past the frozen length, including one that degrades the live
	// payload to generic, must not change what the frozen header reads.
	v.AppendNull()
	v.AppendValue(NewString("x"))
	v.AppendValue(NewInt(9))

	if f.Len() != 3 {
		t.Fatalf("frozen Len = %d, want 3", f.Len())
	}
	want := []Value{NewInt(1), Null, NewInt(3)}
	for i, w := range want {
		if got := f.Value(i); got.Kind() != w.Kind() || got.String() != w.String() {
			t.Fatalf("frozen Value(%d) = %v, want %v", i, got, w)
		}
	}
	if f.IsNull(0) || !f.IsNull(1) || f.IsNull(2) {
		t.Fatalf("frozen null bits drifted: %v %v %v", f.IsNull(0), f.IsNull(1), f.IsNull(2))
	}
	// And the live vector sees everything, post-degradation.
	if v.Len() != 6 || !v.Generic() {
		t.Fatalf("live vec: len %d generic %v", v.Len(), v.Generic())
	}
	if got := v.Value(4); got.Kind() != KindString || got.Str() != "x" {
		t.Fatalf("live Value(4) = %v", got)
	}
}

// TestVecLeadingNulls pins the backfill path: NULLs appended before the first
// typed value must stay NULL once the payload is allocated.
func TestVecLeadingNulls(t *testing.T) {
	var v Vec
	v.AppendNull()
	v.AppendNull()
	v.AppendValue(NewFloat(2.5))
	if !v.IsNull(0) || !v.IsNull(1) || v.IsNull(2) {
		t.Fatalf("null bits wrong after backfill")
	}
	if got := v.Value(2); got.Float() != 2.5 {
		t.Fatalf("Value(2) = %v", got)
	}
	if v.Kind() != KindFloat {
		t.Fatalf("kind = %v", v.Kind())
	}
}

// sameVec fails unless got reads exactly like want: length, every value with
// its kind, every null bit, every key cell.
func sameVec(t *testing.T, what string, got, want *Vec) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", what, got.Len(), want.Len())
	}
	gc, gw, wc, ww := make([]Kind, want.Len()), make([]int64, want.Len()), make([]Kind, want.Len()), make([]int64, want.Len())
	got.KeyCells(0, gc, gw)
	want.KeyCells(0, wc, ww)
	for i := 0; i < want.Len(); i++ {
		g, w := got.Value(i), want.Value(i)
		if !Identical(g, w) || got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s: element %d = %v (%s), want %v (%s)", what, i, g, g.Kind(), w, w.Kind())
		}
		if gc[i] != wc[i] || gw[i] != ww[i] {
			t.Fatalf("%s: key cell %d = (%s, %#x), want (%s, %#x)", what, i, gc[i], gw[i], wc[i], ww[i])
		}
	}
}

// TestVecScratchReuse drives one scratch vector through the refill methods
// the executor uses — Reset+append, Gather, Splat, Prefix — with random
// kinds, lengths and NULLs from one use to the next, and checks each result
// against a vector built from scratch: nothing of an earlier fill (payload,
// null bits, kind, generic-ness) may leak into a later one.
func TestVecScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randVec := func() *Vec {
		v := &Vec{}
		proto, mixed := randValue(rng), rng.Intn(4) == 0
		for i, n := 0, rng.Intn(200); i < n; i++ {
			x := randValue(rng)
			if !mixed && !x.IsNull() && x.Kind() != proto.Kind() {
				x = proto
			}
			v.AppendValue(x)
		}
		return v
	}
	var scratch Vec
	for trial := 0; trial < 500; trial++ {
		src := randVec()
		switch rng.Intn(4) {
		case 0: // Reset + append
			scratch.Reset()
			for i := 0; i < src.Len(); i++ {
				scratch.AppendValue(src.Value(i))
			}
			sameVec(t, "reset+append", &scratch, src)
		case 1: // Gather through a random index list (repeats, any order)
			var want Vec
			idx := make([]int32, 0, 64)
			for i, n := 0, rng.Intn(64); src.Len() > 0 && i < n; i++ {
				ri := rng.Intn(src.Len())
				idx = append(idx, int32(ri))
				want.AppendValue(src.Value(ri))
			}
			scratch.Gather(src, idx)
			sameVec(t, "gather", &scratch, &want)
		case 2: // Splat, then a shorter Prefix of it
			x, n := randValue(rng), rng.Intn(100)
			var want Vec
			for i := 0; i < n; i++ {
				want.AppendValue(x)
			}
			scratch.Splat(x, n)
			sameVec(t, "splat", &scratch, &want)
			head := scratch.Prefix(n / 2)
			var wantHead Vec
			for i := 0; i < n/2; i++ {
				wantHead.AppendValue(x)
			}
			sameVec(t, "prefix", &head, &wantHead)
		case 3: // typed refill with NULLs marked afterwards
			n := rng.Intn(100)
			var want Vec
			fs := scratch.RefillFloats(n)
			for i := range fs {
				if rng.Intn(5) == 0 {
					scratch.SetNull(i)
					want.AppendNull()
					continue
				}
				fs[i] = rng.Float64()
				want.AppendValue(NewFloat(fs[i]))
			}
			sameVec(t, "refill", &scratch, &want)
		}
	}
}

// TestVecReserveKeepsKindOpen: Reserve only sizes the payload; the first
// non-null append still fixes the kind, leading NULLs stay NULL, and a value
// of another kind than the one reserved for is simply appended.
func TestVecReserveKeepsKindOpen(t *testing.T) {
	var v Vec
	v.Reserve(KindInt, 8)
	v.AppendNull()
	v.AppendValue(NewInt(7))
	if v.Kind() != KindInt || !v.IsNull(0) || v.Value(1).Int() != 7 {
		t.Fatalf("reserved int vector reads %v %v (kind %s)", v.Value(0), v.Value(1), v.Kind())
	}
	var w Vec
	w.Reserve(KindInt, 8)
	w.AppendValue(NewString("x"))
	if w.Kind() != KindString || w.Value(0).Str() != "x" {
		t.Fatalf("kind reserved for leaked: %s %v", w.Kind(), w.Value(0))
	}
}

// panicOf runs f and returns what it panicked with, "" when it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestSealedVecRefusesEveryMutator: every mutator panics, naming itself, on a
// sealed vector — one sealed in place, a Frozen copy, a Prefix of either — and
// on none of the scratch vectors; a sealed vector still reads into scratch
// through Gather.
func TestSealedVecRefusesEveryMutator(t *testing.T) {
	build := func() *Vec {
		v := &Vec{}
		for i := range 5 {
			v.AppendValue(NewInt(int64(i)))
		}
		v.AppendNull()
		return v
	}
	src := build()
	src.Seal()
	sealed := []struct {
		name string
		make func() *Vec
	}{
		{"Seal", func() *Vec { return src }},
		{"Frozen", func() *Vec { f := build().Frozen(); return &f }},
		{"Prefix of a sealed vector", func() *Vec { p := src.Prefix(3); return &p }},
		{"Prefix of a Frozen copy", func() *Vec { f := build().Frozen(); p := f.Prefix(3); return &p }},
	}
	scratch := []struct {
		name string
		make func() *Vec
	}{
		{"zero", func() *Vec { return &Vec{} }},
		{"appended", build},
		{"Prefix of scratch", func() *Vec { p := build().Prefix(3); return &p }},
		{"Gathered from a sealed vector", func() *Vec { v := &Vec{}; v.Gather(src, []int32{5, 0}); return v }},
	}
	for _, m := range []struct {
		name, msg string
		call      func(v *Vec)
	}{
		{"AppendValue", "AppendValue on a sealed vector", func(v *Vec) { v.AppendValue(NewInt(9)) }},
		{"AppendNull", "AppendNull on a sealed vector", func(v *Vec) { v.AppendNull() }},
		{"AppendVec", "AppendVec on a sealed vector", func(v *Vec) { v.AppendVec(src, 0, 1) }},
		{"Reset", "Reset on a sealed vector", func(v *Vec) { v.Reset() }},
		{"Reserve", "Reserve on a sealed vector", func(v *Vec) { v.Reserve(KindInt, 8) }},
		{"SetNull", "SetNull on a sealed vector", func(v *Vec) { v.SetNull(0) }},
		{"RefillInts", "refill on a sealed vector", func(v *Vec) { v.RefillInts(KindInt, 2) }},
		{"RefillFloats", "refill on a sealed vector", func(v *Vec) { v.RefillFloats(2) }},
		{"RefillStrings", "refill on a sealed vector", func(v *Vec) { v.RefillStrings(2) }},
		{"RefillGeneric", "refill on a sealed vector", func(v *Vec) { v.RefillGeneric(2) }},
		{"Splat", "refill on a sealed vector", func(v *Vec) { v.Splat(NewInt(1), 4) }},
		{"Splat NULL", "refill on a sealed vector", func(v *Vec) { v.Splat(Null, 4) }},
		{"Gather", "refill on a sealed vector", func(v *Vec) { v.Gather(src, []int32{1}) }},
	} {
		for _, s := range sealed {
			if v := s.make(); !v.Sealed() {
				t.Fatalf("%s: not sealed", s.name)
			}
			if got := panicOf(func() { m.call(s.make()) }); !strings.Contains(got, m.msg) {
				t.Errorf("%s on %s: panic %q, want %q", m.name, s.name, got, m.msg)
			}
		}
		for _, s := range scratch {
			if got := panicOf(func() { m.call(s.make()) }); got != "" {
				t.Errorf("%s on a scratch vector (%s) panicked: %s", m.name, s.name, got)
			}
		}
	}
	var into Vec
	into.Gather(src, []int32{5, 0, 4})
	if into.Sealed() || !into.IsNull(0) || into.Value(1).Int() != 0 || into.Value(2).Int() != 4 {
		t.Fatalf("Gather from a sealed vector reads %v %v %v (sealed %v)", into.Value(0), into.Value(1), into.Value(2), into.Sealed())
	}
}

// TestAppendVecIsAppendValue: appending a run of a vector — typed onto typed
// of its kind, onto an empty or a NULLs-only vector, onto another kind or a
// generic vector, a run with NULLs, an empty run — leaves the vector as
// appending each element's Value does, kinds, NULLs and bits included (a run
// of NULLs only may keep its source's kind, as Gather does).
func TestAppendVecIsAppendValue(t *testing.T) {
	of := func(vals ...Value) *Vec {
		v := &Vec{}
		for _, x := range vals {
			v.AppendValue(x)
		}
		return v
	}
	nan := NewFloat(math.Float64frombits(0x7ff8000000000001))
	srcs := []*Vec{
		of(NewInt(1), Null, NewInt(3)), of(NewFloat(math.Copysign(0, -1)), nan, Null), of(NewString("a"), NewString("")),
		of(NewDate(1995, 1, 4), Null), of(Null, Null), of(NewInt(1), NewString("x")), {},
	}
	for di, dst := range []func() *Vec{
		func() *Vec { return &Vec{} }, func() *Vec { return of(Null) }, func() *Vec { return of(NewInt(7)) },
		func() *Vec { return of(NewFloat(2), Null) }, func() *Vec { return of(NewString("s")) }, func() *Vec { return of(NewInt(1), NewFloat(1)) },
	} {
		for si, src := range srcs {
			for lo := 0; lo <= src.Len(); lo++ {
				got, want := dst(), dst()
				got.AppendVec(src, lo, src.Len())
				for i := lo; i < src.Len(); i++ {
					want.AppendValue(src.Value(i))
				}
				if got.Len() != want.Len() || got.Generic() != want.Generic() || !got.Generic() && want.Kind() != KindNull && got.Kind() != want.Kind() {
					t.Fatalf("dst %d src %d from %d: %d %v %v, want %d %v %v", di, si, lo, got.Len(), got.Kind(), got.Generic(), want.Len(), want.Kind(), want.Generic())
				}
				for i := range got.Len() {
					g, w := got.Value(i), want.Value(i)
					if g.Kind() != w.Kind() || g.IsNull() != w.IsNull() || math.Float64bits(g.f) != math.Float64bits(w.f) || g.i != w.i || g.s != w.s {
						t.Fatalf("dst %d src %d from %d: element %d is %v, want %v", di, si, lo, i, g, w)
					}
				}
			}
		}
	}
}
