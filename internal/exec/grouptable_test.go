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
// ordinals are dense in insertion order, and a key finds its ordinal, repr and
// states again after every resize.
func TestGroupTableOrdinalsSurviveGrowth(t *testing.T) {
	const n = 10 * segGroups
	tab := newGroupTable(2, 2)
	key := func(i int) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewString(fmt.Sprintf("k%05d", i)), sqltypes.NewInt(int64(i % 3))}
	}
	for i := 0; i < n; i++ {
		if g := tab.find(key(i)); g != i || tab.len() != i+1 {
			t.Fatalf("insert %d: ordinal %d, len %d", i, g, tab.len())
		}
		tab.aggs.at(i)[1].count = int64(i)
	}
	for i := n - 1; i >= 0; i-- {
		if g := tab.find(key(i)); g != i || tab.len() != n {
			t.Fatalf("lookup %d: ordinal %d, len %d", i, g, tab.len())
		}
		if got := tab.repr.at(i); got[0].Str() != key(i)[0].Str() || got[1].Int() != int64(i%3) {
			t.Fatalf("repr of %d = %v", i, got)
		}
		if got := tab.aggs.at(i)[1].count; got != int64(i) {
			t.Fatalf("aggs of %d = %d", i, got)
		}
	}
}

// TestGroupTableMergeKeepsFirstAppearance: merging a later partial appends
// its new groups after the earlier partial's, keeps the earlier partial's
// repr for shared groups, and combines their states. The shared groups' key
// column is int in one partial and float in the other.
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
		repr  sqltypes.Value
		count int64
	}{{i(1), 2}, {i(2), 3}, {f(3), 1}, {f(2.5), 1}, {sqltypes.Null, 1}}
	if a.len() != len(want) {
		t.Fatalf("merged len %d, want %d", a.len(), len(want))
	}
	for g, w := range want {
		if r := a.repr.at(g)[0]; r.Kind() != w.repr.Kind() || r.String() != w.repr.String() || a.aggs.at(g)[0].count != w.count {
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
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1))},
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

// TestGroupTableMatchesDecimalGroupKeys drives findBatch with random chunks
// and checks every ordinal against a map keyed by the decimal GroupKey: int 1,
// float 1.0 and float 1.5, -0.0 and 0, NaN, a date and the int of its payload,
// booleans, NULL and the empty string, strings containing NUL, generic
// columns, columns whose payload kind changes from chunk to chunk, tables that
// rehash in the middle of a chunk (the index starts at 16 slots), the empty
// grouping set, lookup-only calls, the one-row find, and mergeFrom of a second
// table built from differently typed chunks.
func TestGroupTableMatchesDecimalGroupKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const nCols = 3
	sets := [][]int{{0, 1, 2}, {2, 0}, {1}, {}}
	type ref struct {
		ords  map[string]int
		count []int64
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
				before := tab.len()
				tab.findBatch(keys, gs, hash[:n], ords, false)
				for di, g := range ords {
					if want, known := r.ords[refKey(rowKey(gs, di))]; known != (g != noGroup) || known && int(g) != want {
						t.Fatalf("trial %d chunk %d set %v row %d %v: lookup says %d, reference %d (known %v)", trial, chunk, gs, di, key, g, want, known)
					}
				}
				if tab.len() != before {
					t.Fatalf("lookup-only call added %d groups", tab.len()-before)
				}
				tab.findBatch(keys, gs, hash[:n], ords, true)
				for di, g := range ords {
					k := refKey(rowKey(gs, di))
					want, known := r.ords[k]
					if !known {
						want = len(r.ords)
						r.ords[k] = want
						r.count = append(r.count, 0)
						for j, v := range tab.repr.at(want) {
							if v.Kind() != key[j].Kind() || v.GroupKey() != key[j].GroupKey() {
								t.Fatalf("trial %d set %v: repr of new group %d is %v, first row %v", trial, gs, want, tab.repr.at(want), key)
							}
						}
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
				if tab.len() != len(r.ords) {
					t.Fatalf("trial %d set %v: %d groups, reference %d", trial, gs, tab.len(), len(r.ords))
				}
			}
		}
		// Merge side 1 into side 0: side 0's groups keep their ordinals, side
		// 1's new ones follow in its order, counts add.
		specs := []aggSpec{{agg: &qgm.Agg{Op: "count", Star: true}}}
		for si, gs := range sets {
			a, b := tabs[0][si], tabs[1][si]
			want := refs[0][si]
			for g := 0; g < b.len(); g++ {
				k := refKey(b.repr.at(g))
				if _, known := want.ords[k]; !known {
					want.ords[k] = len(want.ords)
					want.count = append(want.count, 0)
				}
				want.count[want.ords[k]] += refs[1][si].count[g]
			}
			if err := a.mergeFrom(b, specs); err != nil {
				t.Fatal(err)
			}
			if a.len() != len(want.ords) {
				t.Fatalf("trial %d set %v: %d groups after merge, reference %d", trial, gs, a.len(), len(want.ords))
			}
			for g := 0; g < a.len(); g++ {
				if ord := want.ords[refKey(a.repr.at(g))]; ord != g || a.aggs.at(g)[0].count != want.count[g] {
					t.Fatalf("trial %d set %v: merged group %d %v has reference ordinal %d, count %d vs %d", trial, gs, g, a.repr.at(g), ord, a.aggs.at(g)[0].count, want.count[g])
				}
			}
		}
	}
}
