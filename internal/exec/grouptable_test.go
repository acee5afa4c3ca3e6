package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// TestGroupTableOrdinalsSurviveGrowth inserts enough keys to resize the index
// and to open many slab segments, and checks what the GROUP BY paths rely on:
// ordinals are dense in insertion order, and a key finds its ordinal, key values and
// states again after every resize.
func TestGroupTableOrdinalsSurviveGrowth(t *testing.T) {
	const n = 10 * segGroups
	tab := newGroupTable(2, 2)
	key := func(i int) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewString(fmt.Sprintf("k%05d", i)), sqltypes.NewInt(int64(i % 3))}
	}
	for i := 0; i < n; i++ {
		if g := tab.find(key(i)); g != i || tab.n != i+1 {
			t.Fatalf("insert %d: ordinal %d, len %d", i, g, tab.n)
		}
		tab.aggs.at(i)[1].count = int64(i)
	}
	for i := n - 1; i >= 0; i-- {
		if g := tab.find(key(i)); g != i || tab.n != n {
			t.Fatalf("lookup %d: ordinal %d, len %d", i, g, tab.n)
		}
		if got := keyValues(tab, i); got[0].Str() != key(i)[0].Str() || got[1].Int() != int64(i%3) {
			t.Fatalf("key of %d = %v", i, got)
		}
		if got := tab.aggs.at(i)[1].count; got != int64(i) {
			t.Fatalf("aggs of %d = %d", i, got)
		}
	}
}

// TestGroupTableMergeKeepsFirstAppearance: merging a later partial appends
// its new groups after the earlier partial's, keeps the earlier partial's
// representative for shared groups, and combines their states. The shared
// groups' key column is int in one partial and float in the other.
func TestGroupTableMergeKeepsFirstAppearance(t *testing.T) {
	specs := []aggSpec{{agg: &qgm.Agg{Op: "count", Star: true}}}
	fill := func(keys ...sqltypes.Value) *groupTable {
		tab := newGroupTable(1, 1)
		for _, k := range keys {
			tab.aggs.at(tab.find([]sqltypes.Value{k}))[0].count++
		}
		return tab
	}
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	a := fill(i(1), i(2), i(1))
	b := fill(f(3), f(2), f(2.5), f(2), sqltypes.Null)
	if err := a.mergeFrom(b, specs); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key   sqltypes.Value
		count int64
	}{{i(1), 2}, {i(2), 3}, {f(3), 1}, {f(2.5), 1}, {sqltypes.Null, 1}}
	if a.n != len(want) {
		t.Fatalf("merged len %d, want %d", a.n, len(want))
	}
	for g, w := range want {
		if r := keyValues(a, g)[0]; r.Kind() != w.key.Kind() || r.String() != w.key.String() || a.aggs.at(g)[0].count != w.count {
			t.Fatalf("group %d = (%v %s, %d), want %+v", g, r, r.Kind(), a.aggs.at(g)[0].count, w)
		}
	}
}

// refKey is the reference identity of a key: the decimal GroupKey of each
// value (sqltypes' own rendering, which maintain and qgm use and which shares
// no code with KeyCell), length-prefixed so that no two keys concatenate alike.
func refKey(key []sqltypes.Value) string {
	var s string
	for _, v := range key {
		k := v.GroupKey()
		s += fmt.Sprintf("%d:%s", len(k), k)
	}
	return s
}

// keyPools are the values the reference test draws a column's chunk from, by
// the payload kind the chunk's vector then has: every class boundary of the
// normalisation is in here.
var keyPools = map[sqltypes.Kind][]sqltypes.Value{
	sqltypes.KindInt: {sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(-1), sqltypes.NewInt(2), sqltypes.NewInt(19910412),
		sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(1e15)},
	sqltypes.KindFloat: {sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(1), sqltypes.NewFloat(1.5),
		sqltypes.NewFloat(-1), sqltypes.NewFloat(2), sqltypes.NewFloat(19910412), sqltypes.NewFloat(1e15), sqltypes.NewFloat(1e300),
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0xfff8000000000000)), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1))},
	sqltypes.KindString: {sqltypes.NewString(""), sqltypes.NewString("\x00"), sqltypes.NewString("a"), sqltypes.NewString("a\x00"),
		sqltypes.NewString("\x00a"), sqltypes.NewString("a\x00b"), sqltypes.NewString("1"), sqltypes.NewString("N"), sqltypes.NewString("a long enough string, twice: a long enough string")},
	sqltypes.KindBool: {sqltypes.NewBool(false), sqltypes.NewBool(true)},
	sqltypes.KindDate: {sqltypes.NewDate(1991, 4, 12), sqltypes.NewDate(0, 0, 1), sqltypes.NewDate(0, 0, 0), sqltypes.NewDate(0, 0, 2)},
}

// randomKeyVec fills v with n values for one chunk of a key column: of one
// payload kind (with NULLs), all NULL, or of every kind at once, which
// degrades the vector to the generic payload.
func randomKeyVec(rng *rand.Rand, v *sqltypes.Vec, n int) {
	kind := sqltypes.Kind(rng.Intn(7)) // KindNull: all NULL; 6: mixed
	v.Reset()
	for i := 0; i < n; i++ {
		k := kind
		if kind == 6 {
			k = sqltypes.Kind(1 + rng.Intn(5))
		}
		if pool := keyPools[k]; pool != nil && rng.Intn(6) > 0 {
			v.AppendValue(pool[rng.Intn(len(pool))])
		} else {
			v.AppendNull()
		}
	}
}

// keyValues rebuilds group g's key values.
func keyValues(t *groupTable, g int) []sqltypes.Value {
	out := make([]sqltypes.Value, t.nk)
	for j := range out {
		out[j] = t.value(g, j)
	}
	return out
}

// sameBits reports whether a and b are one value: same kind and same payload
// bits (a float's sign of zero and NaN payload included).
func sameBits(a, b sqltypes.Value) bool {
	switch {
	case a.Kind() != b.Kind():
		return false
	case a.Kind() == sqltypes.KindNull:
		return true
	case a.Kind() == sqltypes.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case a.Kind() == sqltypes.KindString:
		return a.Str() == b.Str()
	}
	return a.Int() == b.Int()
}

// requireReprs checks every group's representative against its first row.
func requireReprs(t testing.TB, tab *groupTable, first [][]sqltypes.Value) {
	t.Helper()
	for g, key := range first {
		for j, v := range keyValues(tab, g) {
			if !sameBits(v, key[j]) {
				t.Fatalf("group %d: representative %v (%s), first row %v (%s)", g, keyValues(tab, g), v.Kind(), key, key[j].Kind())
			}
		}
	}
}

// TestGroupTableMatchesDecimalGroupKeys drives findBatch with random chunks
// and checks every ordinal against a map keyed by the decimal GroupKey, and
// every representative against its group's first row, bit for bit: int 1,
// float 1.0 and float 1.5, -0.0 and 0, two NaNs, a date and the int of its
// payload, booleans, NULL and the empty string, strings containing NUL,
// generic columns, columns whose payload kind changes from chunk to chunk,
// tables that rehash in the middle of a chunk (the index starts at 16 slots),
// the empty grouping set, lookup-only calls, the one-row find, and mergeFrom
// of a second table built from differently typed chunks.
func TestGroupTableMatchesDecimalGroupKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const nCols = 3
	sets := [][]int{{0, 1, 2}, {2, 0}, {1}, {}}
	type ref struct {
		ords  map[string]int
		count []int64
		first [][]sqltypes.Value // per group, its first row's key
	}
	for trial := 0; trial < 40; trial++ {
		// Two tables per set, fed alternate chunks, so that the merge below sees
		// the same column typed differently on its two sides.
		var tabs [2][]*groupTable
		var refs [2][]ref
		for side := range tabs {
			for _, gs := range sets {
				tabs[side] = append(tabs[side], newGroupTable(len(gs), 1))
				refs[side] = append(refs[side], ref{ords: map[string]int{}})
			}
		}
		keys := make([]keyCol, nCols)
		vecs := make([]sqltypes.Vec, nCols)
		key := make([]sqltypes.Value, 0, nCols)
		rowKey := func(gs []int, di int) []sqltypes.Value {
			key = key[:0]
			for _, c := range gs {
				key = append(key, vecs[c].Value(di))
			}
			return key
		}
		var ords []uint32
		var hash [stripRows]uint64
		for chunk := 0; chunk < 6; chunk++ {
			side, n := chunk%2, 1+rng.Intn(stripRows)
			for c := range vecs {
				randomKeyVec(rng, &vecs[c], n)
				keys[c].load(&vecs[c], 0, n)
			}
			ords = resize(ords, n)
			for si, gs := range sets {
				tab, r := tabs[side][si], &refs[side][si]
				// Lookup-only first: known keys found, unknown ones reported, and
				// nothing added.
				before := tab.n
				tab.findBatch(keys, gs, hash[:n], ords, false)
				for di, g := range ords {
					if want, known := r.ords[refKey(rowKey(gs, di))]; known != (g != noGroup) || known && int(g) != want {
						t.Fatalf("trial %d chunk %d set %v row %d %v: lookup says %d, reference %d (known %v)", trial, chunk, gs, di, key, g, want, known)
					}
				}
				if tab.n != before {
					t.Fatalf("lookup-only call added %d groups", tab.n-before)
				}
				tab.findBatch(keys, gs, hash[:n], ords, true)
				for di, g := range ords {
					k := refKey(rowKey(gs, di))
					want, known := r.ords[k]
					if !known {
						want = len(r.ords)
						r.ords[k] = want
						r.count = append(r.count, 0)
						r.first = append(r.first, append([]sqltypes.Value(nil), key...))
					}
					if int(g) != want {
						t.Fatalf("trial %d chunk %d set %v row %d %v: ordinal %d, reference %d", trial, chunk, gs, di, key, g, want)
					}
					r.count[want]++
					tab.aggs.at(want)[0].count++
					if di%37 == 0 {
						if one := tab.find(rowKey(gs, di)); one != want {
							t.Fatalf("trial %d set %v %v: one-row find %d, batch %d", trial, gs, key, one, want)
						}
					}
				}
				if tab.n != len(r.ords) {
					t.Fatalf("trial %d set %v: %d groups, reference %d", trial, gs, tab.n, len(r.ords))
				}
				requireReprs(t, tab, r.first)
			}
		}
		// Merge side 1 into side 0: side 0's groups keep their ordinals, side
		// 1's new ones follow in its order, counts add.
		specs := []aggSpec{{agg: &qgm.Agg{Op: "count", Star: true}}}
		for si, gs := range sets {
			a, b := tabs[0][si], tabs[1][si]
			want := refs[0][si]
			for g := 0; g < b.n; g++ {
				k := refKey(keyValues(b, g))
				if _, known := want.ords[k]; !known {
					want.ords[k] = len(want.ords)
					want.count = append(want.count, 0)
					want.first = append(want.first, refs[1][si].first[g])
				}
				want.count[want.ords[k]] += refs[1][si].count[g]
			}
			if err := a.mergeFrom(b, specs); err != nil {
				t.Fatal(err)
			}
			if a.n != len(want.ords) {
				t.Fatalf("trial %d set %v: %d groups after merge, reference %d", trial, gs, a.n, len(want.ords))
			}
			for g := 0; g < a.n; g++ {
				if ord := want.ords[refKey(keyValues(a, g))]; ord != g || a.aggs.at(g)[0].count != want.count[g] {
					t.Fatalf("trial %d set %v: merged group %d %v has reference ordinal %d, count %d vs %d", trial, gs, g, keyValues(a, g), ord, a.aggs.at(g)[0].count, want.count[g])
				}
			}
			requireReprs(t, a, want.first)
		}
	}
}

// fuzzIn hands out a fuzz input's bytes one at a time, then zeros.
type fuzzIn []byte

func (in *fuzzIn) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// fuzzKeyVec fills v with n values for one strip of a key column, as
// randomKeyVec does but driven by the input, which can also spell a float's
// bits (any NaN payload, −0.0, subnormals).
func fuzzKeyVec(in *fuzzIn, v *sqltypes.Vec, n int) {
	kind := sqltypes.Kind(in.next() % 7) // KindNull: all NULL; 6: mixed
	v.Reset()
	for i := 0; i < n; i++ {
		k := kind
		if kind == 6 {
			k = sqltypes.Kind(1 + in.next()%5)
		}
		pool, x := keyPools[k], in.next()
		switch {
		case pool == nil || x%8 == 0:
			v.AppendNull()
		case k == sqltypes.KindFloat && x%8 == 7:
			var bits uint64
			for b := 0; b < 8; b++ {
				bits = bits<<8 | uint64(in.next())
			}
			v.AppendValue(sqltypes.NewFloat(math.Float64frombits(bits)))
		default:
			v.AppendValue(pool[x%len(pool)])
		}
	}
}

// FuzzGroupTable feeds strips of typed and generic key vectors through one
// table with findBatch (lookup-only, then inserting), and the same rows
// through two partials — the first strips to one, the rest to the other, by
// findBatch or row by row with find — which are then merged with mergeFrom.
// It checks every ordinal against a map keyed by the decimal GroupKey, every
// representative against its group's first row bit for bit, and that the
// merged partials equal the one table: groups, order, representatives, counts.
func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{2, 40, 6, 1, 9, 17, 23, 4, 7, 255, 248, 0, 0, 0, 0, 0, 1, 3, 2, 12, 5, 99, 0, 7})
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{300, 3000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	specs := []aggSpec{{agg: &qgm.Agg{Op: "count", Star: true}}}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzIn(data)
		nCols := 1 + in.next()%3
		set := allInts(nCols)
		whole := newGroupTable(nCols, 1)
		parts := [2]*groupTable{newGroupTable(nCols, 1), newGroupTable(nCols, 1)}
		ords, first := map[string]int{}, [][]sqltypes.Value(nil)
		keys, vecs := make([]keyCol, nCols), make([]sqltypes.Vec, nCols)
		var hash [stripRows]uint64
		var got [stripRows]uint32
		side := 0
		for strip := 0; len(in) > 0 && strip < 24; strip++ {
			n := 1 + in.next()%96
			for c := range vecs {
				fuzzKeyVec(&in, &vecs[c], n)
				keys[c].load(&vecs[c], 0, n)
			}
			key := func(di int) []sqltypes.Value {
				k := make([]sqltypes.Value, nCols)
				for c := range k {
					k[c] = vecs[c].Value(di)
				}
				return k
			}
			whole.findBatch(keys, set, hash[:n], got[:n], false)
			for di, g := range got[:n] {
				if want, known := ords[refKey(key(di))]; known != (g != noGroup) || known && int(g) != want {
					t.Fatalf("strip %d row %d %v: lookup says %d, reference %d (known %v)", strip, di, key(di), g, want, known)
				}
			}
			whole.findBatch(keys, set, hash[:n], got[:n], true)
			for di, g := range got[:n] {
				k := refKey(key(di))
				want, known := ords[k]
				if !known {
					want = len(ords)
					ords[k] = want
					first = append(first, key(di))
				}
				if int(g) != want {
					t.Fatalf("strip %d row %d %v: ordinal %d, reference %d", strip, di, key(di), g, want)
				}
				whole.aggs.at(want)[0].count++
			}
			if side == 0 && in.next()%4 == 0 {
				side = 1
			}
			p := parts[side]
			if in.next()%2 == 0 {
				p.findBatch(keys, set, hash[:n], got[:n], true)
			} else {
				for di := range got[:n] {
					got[di] = uint32(p.find(key(di)))
				}
			}
			for _, g := range got[:n] {
				p.aggs.at(int(g))[0].count++
			}
		}
		if whole.n != len(ords) {
			t.Fatalf("%d groups, reference %d", whole.n, len(ords))
		}
		requireReprs(t, whole, first)
		merged := parts[0]
		if err := merged.mergeFrom(parts[1], specs); err != nil {
			t.Fatal(err)
		}
		if merged.n != whole.n {
			t.Fatalf("merged partials hold %d groups, one table %d", merged.n, whole.n)
		}
		requireReprs(t, merged, first)
		for g := 0; g < whole.n; g++ {
			if m, w := merged.aggs.at(g)[0].count, whole.aggs.at(g)[0].count; m != w {
				t.Fatalf("group %d %v: %d rows merged, %d in one table", g, first[g], m, w)
			}
		}
	})
}
