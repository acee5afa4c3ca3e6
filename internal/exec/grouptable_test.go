package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// countStar is COUNT(*), the aggregate of the tests that count rows into a
// table's cells by hand.
var (
	countStar  = aggSpec{agg: &qgm.Agg{Op: "count", Star: true}, op: opCount}
	countStars = []aggSpec{countStar}
)

// TestGroupTableOrdinalsSurviveGrowth inserts enough keys to resize the index
// and to open many slab segments, and checks what the GROUP BY paths rely on:
// ordinals are dense in insertion order, and a key finds its ordinal, key values and
// states again after every resize.
func TestGroupTableOrdinalsSurviveGrowth(t *testing.T) {
	const n = 10 * segGroups
	tab := newGroupTable(2, []aggSpec{countStar, countStar}, 0, false)
	key := func(i int) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewString(fmt.Sprintf("k%05d", i)), sqltypes.NewInt(int64(i % 3))}
	}
	for i := 0; i < n; i++ {
		if g := int(tab.find(key(i), true)); g != i || tab.n != i+1 {
			t.Fatalf("insert %d: ordinal %d, len %d", i, g, tab.n)
		}
		tab.aggs.at(i)[1] = int64(i)
	}
	for i := n - 1; i >= 0; i-- {
		if g := int(tab.find(key(i), true)); g != i || tab.n != n {
			t.Fatalf("lookup %d: ordinal %d, len %d", i, g, tab.n)
		}
		if got := keyValues(tab, i); got[0].Str() != key(i)[0].Str() || got[1].Int() != int64(i%3) {
			t.Fatalf("key of %d = %v", i, got)
		}
		if got := tab.aggs.at(i)[1]; got != int64(i) {
			t.Fatalf("aggs of %d = %d", i, got)
		}
	}
}

// TestHashedIndexPassesOverTagCollisions: 100,000 int keys through a table
// hashed from its first key fill an index of 2¹⁸ entries, whose tags are 14
// bits, so some probe meets an entry whose tag matches and whose key does
// not (small int keys, now direct, used to reach this in other tests); it
// must go on past it. Every key keeps the ordinal of its first appearance,
// found again lookup-only.
func TestHashedIndexPassesOverTagCollisions(t *testing.T) {
	tab := hashedOnly(1, nil)
	var v sqltypes.Vec
	var hash [stripRows]uint64
	var ords [stripRows]uint32
	keys := []keyCol{{}}
	for _, insert := range []bool{true, false} {
		for lo := 0; lo < 100_000; lo += stripRows {
			xs := v.RefillInts(sqltypes.KindInt, stripRows)
			for i := range xs {
				xs[i] = int64(lo+i) * 7919
			}
			keys[0].load(&v, 0, stripRows)
			tab.findBatch(keys, []int{0}, hash[:], ords[:], insert)
			for i, g := range ords {
				if int(g) != lo+i {
					t.Fatalf("key %d (insert %v): ordinal %d, want %d", xs[i], insert, g, lo+i)
				}
			}
		}
	}
}

// TestGroupTableMergeKeepsFirstAppearance: merging a later partial appends
// its new groups after the earlier partial's, keeps the earlier partial's
// representative for shared groups, and combines their states. The shared
// groups' key column is int in one partial and float in the other.
func TestGroupTableMergeKeepsFirstAppearance(t *testing.T) {
	fill := func(keys ...sqltypes.Value) *groupTable {
		tab := newGroupTable(1, countStars, 0, false)
		for _, k := range keys {
			tab.aggs.at(int(tab.find([]sqltypes.Value{k}, true)))[0]++
		}
		return tab
	}
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	a := fill(i(1), i(2), i(1))
	b := fill(f(3), f(2), f(2.5), f(2), sqltypes.Null)
	if err := a.mergeFrom(b, countStars); err != nil {
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
		if r := keyValues(a, g)[0]; r.Kind() != w.key.Kind() || r.String() != w.key.String() || a.aggs.at(g)[0] != w.count {
			t.Fatalf("group %d = (%v %s, %d), want %+v", g, r, r.Kind(), a.aggs.at(g)[0], w)
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
// degrades the vector to the generic payload. With span, seven chunks in
// eight are ints from a window of span words around 0 instead, which a
// direct index takes while the windows' product fits maxCells.
func randomKeyVec(rng *rand.Rand, v *sqltypes.Vec, n, span int) {
	kind := sqltypes.Kind(rng.Intn(7)) // KindNull: all NULL; 6: mixed
	v.Reset()
	if span > 0 && rng.Intn(8) > 0 {
		for range n {
			v.AppendValue(sqltypes.NewInt(int64(rng.Intn(span) - span/4)))
		}
		return
	}
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
// small int keys whose spans' product is under maxCells in some trials and
// over it in others (direct tables that widen, and convert in the middle of a
// chunk), the empty grouping set (whose one group is there before any row),
// lookup-only calls, the one-row find, and mergeFrom of a second table built
// from differently typed chunks.
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
				r := ref{ords: map[string]int{}}
				if len(gs) == 0 { // the empty grouping set's one group is there from the start
					r = ref{ords: map[string]int{refKey(nil): 0}, count: []int64{0}, first: [][]sqltypes.Value{{}}}
				}
				tabs[side] = append(tabs[side], newGroupTable(len(gs), countStars, 0, false))
				refs[side] = append(refs[side], r)
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
				randomKeyVec(rng, &vecs[c], n, [...]int{0, 3, 20, 25, 90}[trial%5])
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
					tab.aggs.at(want)[0]++
					if di%37 == 0 {
						if one := int(tab.find(rowKey(gs, di), true)); one != want {
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
			if err := a.mergeFrom(b, countStars); err != nil {
				t.Fatal(err)
			}
			if a.n != len(want.ords) {
				t.Fatalf("trial %d set %v: %d groups after merge, reference %d", trial, gs, a.n, len(want.ords))
			}
			for g := 0; g < a.n; g++ {
				if ord := want.ords[refKey(keyValues(a, g))]; ord != g || a.aggs.at(g)[0] != want.count[g] {
					t.Fatalf("trial %d set %v: merged group %d %v has reference ordinal %d, count %d vs %d", trial, gs, g, keyValues(a, g), ord, a.aggs.at(g)[0], want.count[g])
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
// bits (any NaN payload, −0.0, subnormals) or a strip of small ints.
func fuzzKeyVec(in *fuzzIn, v *sqltypes.Vec, n int) {
	kind := sqltypes.Kind(in.next() % 8) // KindNull: all NULL; 6: mixed; 7: small ints
	v.Reset()
	if kind == 7 { // one byte each, around 0: spans whose product straddles maxCells
		for range n {
			v.AppendValue(sqltypes.NewInt(int64(in.next() - 64)))
		}
		return
	}
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

// fuzzOneGroupSeed has no key columns and one strip of six float arguments,
// all above zero (1.5, 1, 2, 19910412, 1e15, 1e300): a register fold that did
// not start from its first value would get MIN wrong.
var fuzzOneGroupSeed = []byte{0, 0, 5, 2, 3, 2, 5, 6, 20, 21}

// fuzzSpecs are the aggregates FuzzGroupTable folds over its argument column:
// COUNT(*), COUNT, MIN, MAX and the four DISTINCT forms, and SUM when withSum
// — a SUM over strings is an error, so half the inputs leave it out and fold
// every kind without one.
func fuzzSpecs(withSum bool) []aggSpec {
	specs := []aggSpec{countStar}
	for _, distinct := range []bool{false, true} {
		for _, op := range []aggOp{opCount, opSum, opMin, opMax} {
			if op != opSum || distinct || withSum {
				specs = append(specs, aggSpec{agg: &qgm.Agg{Op: [...]string{"count", "sum", "min", "max"}[op], Distinct: distinct}, op: op})
			}
		}
	}
	return specs
}

// fuzzGroup is the reference of one group: its rows, its non-NULL arguments in
// row order, and their first appearances by decimal GroupKey.
type fuzzGroup struct {
	rows        int64
	vals, dvals []sqltypes.Value
	dseen       map[string]bool
	sides       [2]bool // which partials its rows went to
	allInt      bool    // every non-NULL argument is an int
}

// refFold is SUM, MIN or MAX over vals in order as the definitions read: the
// first value as it is, then Add or Compare. A pairing that cannot be added
// or compared is skipped by MIN/MAX and makes a DISTINCT result NULL.
func refFold(op aggOp, distinct bool, vals []sqltypes.Value) sqltypes.Value {
	var acc sqltypes.Value
	for _, v := range vals {
		if acc.IsNull() {
			acc = v
			continue
		}
		var c int
		var err error
		if op == opSum {
			acc, err = sqltypes.Add(acc, v)
		} else if c, err = sqltypes.Compare(v, acc); err == nil && (op == opMin && c < 0 || op == opMax && c > 0) {
			acc = v
		}
		if err != nil && distinct {
			return sqltypes.Null
		}
	}
	return acc
}

// want is the reference result of aggregate s over group r.
func (r *fuzzGroup) want(s *aggSpec) sqltypes.Value {
	vals := r.vals
	if s.agg.Distinct {
		vals = r.dvals
	}
	switch {
	case s.agg.Star:
		return sqltypes.NewInt(r.rows)
	case s.op == opCount:
		return sqltypes.NewInt(int64(len(vals)))
	}
	return refFold(s.op, s.agg.Distinct, vals)
}

// FuzzGroupTable feeds strips of typed and generic key vectors, each row with
// an argument of any kind, through one table with findBatch (lookup-only, then
// inserting) and the pipeline's per-strip folds of COUNT/SUM/MIN/MAX and their
// DISTINCT forms; and the same rows through two partials split at a fuzzed
// row — each strip piece by findBatch and the strip folds, or row by row with
// find and one-row strips, as the row path folds — which are then merged with
// mergeFrom. With no key columns every strip is one group and the folds run
// in a register. It checks every ordinal against a map keyed by the decimal
// GroupKey, every representative against its group's first row bit for bit,
// every result of the one table against the definitions over the rows in order
// (refFold; DISTINCT over first appearances by GroupKey), and that the merged
// partials equal the one table: groups, order, representatives and every
// result bit for bit — except a non-DISTINCT SUM/MIN/MAX of a group on both
// sides of the split whose arguments are not all ints, which merging may
// legitimately re-associate or, past NaNs and mixed kinds, order differently.
// A SUM that cannot add must fail on both routes. Both tables then emit through
// groupChunks, and every emitted cell must be what its table's cell holds.
func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{2, 40, 6, 1, 9, 17, 23, 4, 7, 255, 248, 0, 0, 0, 0, 0, 1, 3, 2, 12, 5, 99, 0, 7})
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{300, 3000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})         // no key columns and no rows: the empty grouping set's one group, never fed
	f.Add(fuzzOneGroupSeed) // no key columns: every strip folds in a register
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzIn(data)
		nCols, specs := in.next()%4, fuzzSpecs(in.next()%2 == 0)
		set := allInts(nCols)
		whole := newGroupTable(nCols, specs, 0, false)
		parts := [2]*groupTable{newGroupTable(nCols, specs, 0, false), newGroupTable(nCols, specs, 0, false)}
		ords, first, groups := map[string]int{}, [][]sqltypes.Value(nil), []*fuzzGroup(nil)
		if nCols == 0 { // the empty grouping set's one group is there from the start
			ords[refKey(nil)], first, groups = 0, [][]sqltypes.Value{{}}, []*fuzzGroup{{dseen: map[string]bool{}, allInt: true}}
		}
		keys, vecs := make([]keyCol, nCols), make([]sqltypes.Vec, nCols)
		accums := make([]vecAccum, len(specs))
		var arg, row sqltypes.Vec // the strip's argument column; one row of it
		var hash [stripRows]uint64
		var got [stripRows]uint32
		var wholeErr, partErr error
		// foldStrip folds rows lo to hi of the strip, whose groups are in got,
		// into tab a strip at a time, as the pipeline does.
		foldStrip := func(tab *groupTable, lo, hi int) error {
			for ai := range specs {
				accums[ai].bind(&specs[ai], &arg)
				if err := accums[ai].fold(tab, ai, lo, got[:hi-lo], nCols == 0, hash[:hi-lo]); err != nil {
					return err
				}
			}
			return nil
		}
		side := 0
		for strip := 0; len(in) > 0 && strip < 24; strip++ {
			n := 1 + in.next()%96
			for c := range vecs {
				fuzzKeyVec(&in, &vecs[c], n)
				keys[c].load(&vecs[c], 0, n)
			}
			fuzzKeyVec(&in, &arg, n)
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
			cut := n // rows from cut on go to partial 1
			if side == 0 && in.next()%4 == 0 {
				cut, side = in.next()%(n+1), 1
			} else if side == 1 {
				cut = 0
			}
			for di, g := range got[:n] {
				k := refKey(key(di))
				want, known := ords[k]
				if !known {
					want = len(ords)
					ords[k] = want
					first = append(first, key(di))
					groups = append(groups, &fuzzGroup{dseen: map[string]bool{}, allInt: true})
				}
				if int(g) != want {
					t.Fatalf("strip %d row %d %v: ordinal %d, reference %d", strip, di, key(di), g, want)
				}
				r, v := groups[want], arg.Value(di)
				r.rows++
				if di >= cut {
					r.sides[1] = true
				} else {
					r.sides[0] = true
				}
				if v.IsNull() {
					continue
				}
				r.vals = append(r.vals, v)
				r.allInt = r.allInt && v.Kind() == sqltypes.KindInt
				if gk := v.GroupKey(); !r.dseen[gk] {
					r.dseen[gk] = true
					r.dvals = append(r.dvals, v)
				}
			}
			if err := foldStrip(whole, 0, n); err != nil {
				wholeErr = err
			}
			for p, lo, hi := 0, 0, cut; p < 2; p, lo, hi = p+1, cut, n {
				if lo == hi {
					continue
				}
				tab := parts[p]
				if in.next()%2 == 0 {
					for c := range keys {
						keys[c].load(&vecs[c], lo, hi-lo)
					}
					tab.findBatch(keys, set, hash[:hi-lo], got[:hi-lo], true)
					if err := foldStrip(tab, lo, hi); err != nil {
						partErr = err
					}
					continue
				}
				for di := lo; di < hi; di++ {
					row.RefillGeneric(1)[0] = arg.Value(di)
					got[0] = tab.find(key(di), true)
					for ai := range specs {
						accums[ai].bind(&specs[ai], &row)
						if err := accums[ai].fold(tab, ai, 0, got[:1], nCols == 0, hash[:1]); err != nil {
							partErr = err
						}
					}
				}
			}
		}
		if whole.n != len(ords) {
			t.Fatalf("%d groups, reference %d", whole.n, len(ords))
		}
		requireReprs(t, whole, first)
		merged := parts[0]
		if err := merged.mergeFrom(parts[1], specs); err != nil {
			partErr = err
		}
		if (wholeErr != nil) != (partErr != nil) {
			t.Fatalf("one table: %v; partials and merge: %v", wholeErr, partErr)
		}
		if wholeErr != nil {
			return
		}
		if merged.n != whole.n {
			t.Fatalf("merged partials hold %d groups, one table %d", merged.n, whole.n)
		}
		requireReprs(t, merged, first)
		// Both emit their cells; the cells of the two are compared below.
		emitGroupChunks(t, nCols, [][]int{set}, specs, []*groupTable{whole})
		emitGroupChunks(t, nCols, [][]int{set}, specs, []*groupTable{merged})
		for g, r := range groups {
			for ai := range specs {
				s := &specs[ai]
				w, m := whole.result(whole.aggs.at(g), ai, s), merged.result(merged.aggs.at(g), ai, s)
				if want := r.want(s); !sameBits(w, want) {
					t.Fatalf("group %d %v, %s(distinct %v): %v (%s), definition %v (%s)", g, first[g], s.agg.Op, s.agg.Distinct, w, w.Kind(), want, want.Kind())
				}
				if exact := s.op == opCount || s.agg.Distinct || !r.sides[0] || !r.sides[1] || r.allInt; exact && !sameBits(m, w) {
					t.Fatalf("group %d %v, %s(distinct %v): %v (%s) merged, %v (%s) in one table", g, first[g], s.agg.Op, s.agg.Distinct, m, m.Kind(), w, w.Kind())
				}
			}
		}
	})
}

// result is aggregate s's answer from cell ai of state record rec, one cell at
// a time: the reference stateColumn is checked against.
func (t *groupTable) result(rec []int64, ai int, s *aggSpec) sqltypes.Value {
	if s.op == opCount {
		return sqltypes.NewInt(rec[ai])
	}
	return t.stateValue(rec, ai)
}

// buildGroups folds rows — nk key values, then the aggregates' argument —
// into one table per grouping set, a row at a time, as the row path does.
func buildGroups(t testing.TB, nk int, sets [][]int, specs []aggSpec, rows [][]sqltypes.Value) []*groupTable {
	t.Helper()
	tabs := make([]*groupTable, len(sets))
	for si, gs := range sets {
		tabs[si] = newGroupTable(len(gs), specs, 0, false)
	}
	var arg sqltypes.Vec
	var a vecAccum
	var hash [1]uint64
	var ord [1]uint32
	for _, r := range rows {
		arg.RefillGeneric(1)[0] = r[nk]
		for si, gs := range sets {
			key := make([]sqltypes.Value, len(gs))
			for i, pos := range gs {
				key[i] = r[pos]
			}
			ord[0] = tabs[si].find(key, true)
			for ai := range specs {
				a.bind(&specs[ai], &arg)
				if err := a.fold(tabs[si], ai, 0, ord[:], len(gs) == 0, hash[:]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tabs
}

// emitGroupChunks emits tables (grouping sets over nk key columns) through
// groupChunks, the key columns first and then the aggregates, and checks
// every cell against value and result, bit for bit and NULL for NULL, a
// grouped-out column against NULL; and the chunks' shape: sealed, ChunkRows
// groups each but a set's last, no chunk holding two sets.
func emitGroupChunks(t testing.TB, nk int, sets [][]int, specs []aggSpec, tabs []*groupTable) []*storage.Chunk {
	t.Helper()
	specs = slices.Clone(specs)
	for ai := range specs {
		specs[ai].col = nk + ai
	}
	b := &qgm.Box{Cols: make([]qgm.QCL, nk+len(specs)), GroupBy: allInts(nk)}
	rel, err := testEvaluator(nil, nil).groupChunks(b, specs, sets, tabs, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunks := rel.chunks
	for si, gs := range sets {
		tab := tabs[si]
		for lo := 0; lo < tab.n; lo += storage.ChunkRows {
			c := chunks[0]
			chunks = chunks[1:]
			if want := min(storage.ChunkRows, tab.n-lo); c.Len() != want || c.Width() != len(b.Cols) {
				t.Fatalf("set %v, groups from %d: a chunk of %d×%d, want %d×%d", gs, lo, c.Len(), c.Width(), want, len(b.Cols))
			}
			for col := range c.Width() {
				v := c.Col(col)
				if !v.Sealed() {
					t.Fatalf("set %v, groups from %d: column %d is not sealed", gs, lo, col)
				}
				for i := range c.Len() {
					g, want := lo+i, sqltypes.Null
					if j := slices.Index(gs, col); col >= nk {
						want = tab.result(tab.aggs.at(g), col-nk, &specs[col-nk])
					} else if j >= 0 {
						want = tab.value(g, j)
					}
					if got := v.Value(i); !sameBits(got, want) || v.IsNull(i) != want.IsNull() {
						t.Fatalf("set %v, group %d, column %d: emitted %v (%s, null %v), cells %v (%s)", gs, g, col, got, got.Kind(), v.IsNull(i), want, want.Kind())
					}
				}
			}
		}
	}
	if len(chunks) != 0 {
		t.Fatalf("%d chunks beyond the groups", len(chunks))
	}
	return rel.chunks
}

// TestGroupColumnsMatchTheCells: what leaves a group table through
// keyColumn and stateColumn — emitted by groupChunks, or folded into another
// table by mergeFrom — is what value and result rebuild cell by cell: kind,
// payload bits and NULL-ness, both on the typed path of a uniform block and on
// the cell-by-cell one of a mixed block. Each case is built once as one table
// and once as two partials merged, split at a third and at a half of its
// rows; the merged tables emit the one table's chunks bit for bit.
func TestGroupColumnsMatchTheCells(t *testing.T) {
	i, f, s, null := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.Null
	d, bo := sqltypes.NewDate, sqltypes.NewBool
	negZero, oddNaN := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)
	agg := func(op aggOp, distinct bool) aggSpec {
		return aggSpec{agg: &qgm.Agg{Op: [...]string{"count", "sum", "min", "max"}[op], Distinct: distinct}, op: op}
	}
	numeric := []aggSpec{countStar, agg(opCount, false), agg(opSum, false), agg(opMin, false), agg(opMax, false), agg(opSum, true)}
	ordered := []aggSpec{countStar, agg(opCount, true), agg(opMin, false), agg(opMax, false), agg(opMax, true)}
	many := make([][]sqltypes.Value, 0, 2600)
	for g := range 2600 {
		k := i(int64(g % 2500))
		switch g {
		case 1500:
			k = f(1500.5) // a float in the second chunk's int column
		case 2048:
			k = null // the third chunk starts with a NULL
		}
		a := i(int64(g))
		if g%7 == 0 {
			a = null
		}
		many = append(many, []sqltypes.Value{k, a})
	}
	for _, c := range []struct {
		name  string
		nk    int
		sets  [][]int // nil: one set of all nk columns
		specs []aggSpec
		rows  [][]sqltypes.Value
	}{
		{"an int and an integral float in one key column", 1, nil, numeric, [][]sqltypes.Value{
			{i(1), i(10)}, {f(2), i(20)}, {f(2.5), i(30)}, {i(3), i(40)}, {f(2), i(50)}, {i(1), i(60)}}},
		{"integral and fractional floats", 1, nil, numeric, [][]sqltypes.Value{
			{f(2), f(0.5)}, {f(2.5), f(1.5)}, {f(-3), f(2)}, {f(math.NaN()), f(-1.5)}, {f(1e300), f(0.25)}, {f(2), f(4)}}},
		{"-0.0 and a non-canonical NaN", 1, nil, numeric, [][]sqltypes.Value{
			{f(negZero), f(negZero)}, {f(oddNaN), f(1.5)}, {f(0), f(negZero)}, {f(1.5), f(oddNaN)}, {f(math.NaN()), f(2.5)}, {f(1.5), f(-0.5)}}},
		{"strings, dates and bools", 2, nil, ordered, [][]sqltypes.Value{
			{s("a"), d(1991, 4, 12), bo(true)}, {s(""), d(1991, 4, 12), bo(false)}, {s("a"), d(1992, 1, 1), s("x")},
			{s("a\x00b"), d(0, 0, 1), bo(true)}, {s(""), d(1991, 4, 12), bo(true)}, {s("a"), d(1991, 4, 12), bo(false)}}},
		{"a NULL key", 1, nil, numeric, [][]sqltypes.Value{
			{null, i(1)}, {i(1), i(2)}, {null, i(3)}, {i(2), f(0.5)}, {d(1991, 4, 12), i(5)}, {i(1), i(6)}}},
		{"a SUM that saw only NULLs", 1, nil, numeric, [][]sqltypes.Value{
			{i(1), null}, {i(2), i(7)}, {i(1), null}, {i(3), null}, {i(2), null}, {i(3), null}}},
		{"a poisoned DISTINCT SUM", 1, nil, []aggSpec{countStar, agg(opSum, true), agg(opCount, true)}, [][]sqltypes.Value{
			{i(1), i(1)}, {i(2), i(2)}, {i(1), s("a")}, {i(2), i(3)}, {i(1), i(4)}, {i(2), i(2)}}},
		{"more than ChunkRows groups", 1, nil, numeric, many},
		{"grouping sets with grouped-out columns", 2, [][]int{{0, 1}, {1}, {0}, {}}, numeric, [][]sqltypes.Value{
			{s("a"), i(1), i(10)}, {s("b"), i(1), i(20)}, {s("a"), i(2), null}, {s("c"), null, i(40)}, {s("a"), i(1), i(50)}, {s("b"), i(3), i(60)}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sets := c.sets
			if sets == nil {
				sets = [][]int{allInts(c.nk)}
			}
			want := emitGroupChunks(t, c.nk, sets, c.specs, buildGroups(t, c.nk, sets, c.specs, c.rows))
			for _, cut := range []int{len(c.rows) / 3, len(c.rows) / 2} {
				merged := buildGroups(t, c.nk, sets, c.specs, c.rows[:cut])
				for si, tab := range buildGroups(t, c.nk, sets, c.specs, c.rows[cut:]) {
					if err := merged[si].mergeFrom(tab, c.specs); err != nil {
						t.Fatal(err)
					}
				}
				requireSameChunks(t, fmt.Sprintf("merged at row %d", cut), emitGroupChunks(t, c.nk, sets, c.specs, merged), want)
			}
		})
	}
}

// requireSameChunks checks that got holds want's values, chunk for chunk and
// bit for bit.
func requireSameChunks(t testing.TB, what string, got, want []*storage.Chunk) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
	}
	for ci, c := range got {
		if c.Len() != want[ci].Len() {
			t.Fatalf("%s: chunk %d holds %d groups, want %d", what, ci, c.Len(), want[ci].Len())
		}
		for col := range c.Width() {
			for i := range c.Len() {
				if g, w := c.Col(col).Value(i), want[ci].Col(col).Value(i); !sameBits(g, w) {
					t.Fatalf("%s: chunk %d row %d column %d: %v (%s), want %v (%s)", what, ci, i, col, g, g.Kind(), w, w.Kind())
				}
			}
		}
	}
}

// TestGroupChunksAllocatePerChunk: emitting a built table allocates the chunk
// list and the relation, then per chunk of ChunkRows groups its vector slice,
// the chunk and one payload per column — nothing per group or per cell.
func TestGroupChunksAllocatePerChunk(t *testing.T) {
	specs := []aggSpec{countStar, {agg: &qgm.Agg{Op: "sum"}, op: opSum}, {agg: &qgm.Agg{Op: "min"}, op: opMin}}
	const width = 2 + 3 // key columns, then aggregates
	allocs := func(groups int) float64 {
		rows := make([][]sqltypes.Value, groups)
		for g := range rows {
			rows[g] = []sqltypes.Value{sqltypes.NewInt(int64(g)), sqltypes.NewString(fmt.Sprintf("k%d", g%3)), sqltypes.NewInt(int64(g))}
		}
		sets := [][]int{{0, 1}}
		tabs := buildGroups(t, 2, sets, specs, rows)
		emitGroupChunks(t, 2, sets, specs, tabs) // the cells are right
		b := &qgm.Box{Cols: make([]qgm.QCL, width), GroupBy: []int{0, 1}}
		specs := slices.Clone(specs)
		for ai := range specs {
			specs[ai].col = 2 + ai
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := testEvaluator(nil, nil).groupChunks(b, specs, sets, tabs, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const harness = 3 // testEvaluator's evaluator, budget and memo
	for _, groups := range []int{1000, 5000} {
		chunks := (groups + storage.ChunkRows - 1) / storage.ChunkRows
		got, want := allocs(groups), float64(harness+2+chunks*(2+width))
		t.Logf("%d groups: %.0f allocations, %d chunks", groups, got, chunks)
		if got != want {
			t.Errorf("%d groups in %d chunks: %.0f allocations, want %.0f (2 per run, %d per chunk)", groups, chunks, got, want, 2+width)
		}
	}
}

// hashedOnly is a table that hashes from its first key on: the reference a
// direct index must agree with, ordinal for ordinal.
func hashedOnly(nk int, specs []aggSpec) *groupTable {
	t := newGroupTable(nk, specs, 0, false)
	t.hashed = true
	t.rehash(hashedLen(t.n))
	return t
}

// feedBoth runs rows — one value per key column each — through tab and ref
// as one strip, inserting or lookup-only, counts each row in its group's
// first aggregate, and fails unless both give every row one ordinal and hold
// the same groups: representatives bit for bit, and counts.
func feedBoth(t *testing.T, tab, ref *groupTable, insert bool, rows ...[]sqltypes.Value) {
	t.Helper()
	vecs, keys := make([]sqltypes.Vec, tab.nk), make([]keyCol, tab.nk)
	for c := range vecs {
		for _, r := range rows {
			vecs[c].AppendValue(r[c])
		}
		keys[c].load(&vecs[c], 0, len(rows))
	}
	var hash [stripRows]uint64
	got, want := make([]uint32, len(rows)), make([]uint32, len(rows))
	tab.findBatch(keys, allInts(tab.nk), hash[:len(rows)], got, insert)
	ref.findBatch(keys, allInts(tab.nk), hash[:len(rows)], want, insert)
	for i := range rows {
		if got[i] != want[i] {
			t.Fatalf("row %d %v: ordinal %d, hashed reference %d", i, rows[i], got[i], want[i])
		}
		if insert && len(tab.aggs.segs) > 0 {
			tab.aggs.at(int(got[i]))[0]++
			ref.aggs.at(int(want[i]))[0]++
		}
	}
	requireSameGroups(t, tab, ref)
}

// requireSameGroups checks that tab holds ref's groups in ref's order, with
// its representatives and the counts of its first aggregate.
func requireSameGroups(t *testing.T, tab, ref *groupTable) {
	t.Helper()
	if tab.n != ref.n {
		t.Fatalf("%d groups, hashed reference %d", tab.n, ref.n)
	}
	for g := range tab.n {
		for j, v := range keyValues(tab, g) {
			if w := ref.value(g, j); !sameBits(v, w) {
				t.Fatalf("group %d: representative %v (%s), hashed reference %v (%s)", g, v, v.Kind(), w, w.Kind())
			}
		}
		if tab.na > 0 && tab.aggs.at(g)[0] != ref.aggs.at(g)[0] {
			t.Fatalf("group %d: count %d, hashed reference %d", g, tab.aggs.at(g)[0], ref.aggs.at(g)[0])
		}
	}
}

// directRows are keys of two small integer columns, 1–50 × 1–12 in an order
// that widens the spans from both ends: a table they fill stays direct.
func directRows() [][]sqltypes.Value {
	var rows [][]sqltypes.Value
	for i := range 120 {
		rows = append(rows, []sqltypes.Value{sqltypes.NewInt(int64(25 + (i*7)%26*(1-2*(i%2)))), sqltypes.NewInt(int64(1 + i*5%12))})
	}
	return rows
}

// TestGroupTableTransitions drives a direct table through each way it can
// leave its spans, after the direct rows and again after the strip that
// leaves them, against the hashed reference: a key outside the spans they can
// widen to take (negative keys among them), an integral float (of the int
// class, so it stays direct), and the keys that convert it — outside any
// spans maxCells holds, NULL, a date, a string, a float, and int64's ends, whose
// span overflows. Lookup-only strips before and after find the same groups
// and add none.
func TestGroupTableTransitions(t *testing.T) {
	i, f, d := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewDate
	for _, c := range []struct {
		name   string
		strip  [][]sqltypes.Value
		hashed bool
	}{
		{"a key the spans widen to", [][]sqltypes.Value{{i(60), i(5)}, {i(7), i(13)}}, false},
		{"negative keys", [][]sqltypes.Value{{i(-3), i(5)}, {i(-40), i(-1)}, {i(-3), i(5)}}, false},
		{"an integral float", [][]sqltypes.Value{{f(7), i(5)}, {f(51), i(2)}, {i(51), f(2)}}, false},
		{"past maxCells", [][]sqltypes.Value{{i(3), i(5)}, {i(2 * maxCells), i(1)}, {i(3), i(5)}}, true},
		{"NULL", [][]sqltypes.Value{{i(3), sqltypes.Null}, {i(3), i(5)}}, true},
		{"a date", [][]sqltypes.Value{{d(1991, 4, 12), i(5)}, {i(3), i(5)}}, true},
		{"a string", [][]sqltypes.Value{{i(3), sqltypes.NewString("a")}, {i(3), i(5)}}, true},
		{"a fractional float", [][]sqltypes.Value{{f(2.5), i(5)}, {i(3), i(5)}}, true},
		{"int64's ends", [][]sqltypes.Value{{i(math.MinInt64), i(1)}, {i(math.MaxInt64), i(1)}, {i(3), i(5)}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, ref := newGroupTable(2, countStars, 0, false), hashedOnly(2, countStars)
			rows := directRows()
			feedBoth(t, tab, ref, false, rows[:5]...)
			for lo := 0; lo < len(rows); lo += 40 {
				feedBoth(t, tab, ref, true, rows[lo:lo+40]...)
			}
			if tab.hashed {
				t.Fatalf("the direct rows converted the table")
			}
			feedBoth(t, tab, ref, false, c.strip...)
			feedBoth(t, tab, ref, true, c.strip...)
			if tab.hashed != c.hashed {
				t.Fatalf("hashed %v after the strip, want %v", tab.hashed, c.hashed)
			}
			feedBoth(t, tab, ref, false, append(c.strip, rows...)...)
			feedBoth(t, tab, ref, true, append(rows, c.strip...)...)
		})
	}
}

// TestDirectSpanWrapsPastInt64: a span widened past int64's end wraps around
// to its other end and still gives each word a cell of its own — MinInt64
// finds one after MaxInt64−2 — and a word beyond it is not in the table.
func TestDirectSpanWrapsPastInt64(t *testing.T) {
	tab, ref := newGroupTable(1, countStars, 0, false), hashedOnly(1, countStars)
	var keys [][]sqltypes.Value
	for _, k := range []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2, math.MinInt64, math.MaxInt64} {
		keys = append(keys, []sqltypes.Value{sqltypes.NewInt(k)})
		feedBoth(t, tab, ref, true, keys[len(keys)-1])
	}
	if tab.hashed || tab.spans[0].lo != math.MaxInt64-2 || tab.spans[0].n != 4 {
		t.Fatalf("hashed %v, span %+v: want direct from MaxInt64−2, 4 cells", tab.hashed, tab.spans[0])
	}
	feedBoth(t, tab, ref, false, append(keys, []sqltypes.Value{sqltypes.NewInt(math.MinInt64 + 1)})...)
}

// TestGroupTableMergeAcrossModes merges partials through every pair of index
// modes — both direct over one span or over spans their union widens or
// cannot hold, and either side hashed — against the same merge of hashed
// references.
func TestGroupTableMergeAcrossModes(t *testing.T) {
	i, null := sqltypes.NewInt, sqltypes.Null
	rows := directRows()
	shift := func(by int64) [][]sqltypes.Value {
		out := make([][]sqltypes.Value, len(rows))
		for r, row := range rows {
			out[r] = []sqltypes.Value{i(row[0].Int() + by), row[1]}
		}
		return out
	}
	for _, c := range []struct {
		name               string
		into, from         [][]sqltypes.Value
		intoHashed, merged bool // into's mode before the merge, and after
	}{
		{"direct into direct, one span", rows[:60], rows[40:], false, false},
		{"direct into direct, spans widened", rows, shift(100), false, false},
		{"direct into direct, past maxCells", rows, shift(maxCells), false, true},
		{"direct into hashed", append(rows[:30:30], []sqltypes.Value{null, i(1)}), rows, true, true},
		{"hashed into direct", rows[50:], append(rows[:30:30], []sqltypes.Value{i(3), null}), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tabs, refs [2]*groupTable
			for side, part := range [2][][]sqltypes.Value{c.into, c.from} {
				tabs[side], refs[side] = newGroupTable(2, countStars, 0, false), hashedOnly(2, countStars)
				feedBoth(t, tabs[side], refs[side], true, part...)
			}
			if tabs[0].hashed != c.intoHashed {
				t.Fatalf("into is hashed %v before the merge, want %v", tabs[0].hashed, c.intoHashed)
			}
			for side, tab := range []*groupTable{tabs[0], refs[0]} {
				if err := tab.mergeFrom([]*groupTable{tabs[1], refs[1]}[side], countStars); err != nil {
					t.Fatal(err)
				}
			}
			if tabs[0].hashed != c.merged {
				t.Fatalf("hashed %v after the merge, want %v", tabs[0].hashed, c.merged)
			}
			requireSameGroups(t, tabs[0], refs[0])
			feedBoth(t, tabs[0], refs[0], false, append(c.into, c.from...)...)
		})
	}
}

// TestDirectDimensionUnderConcurrentProbes: workers probe one built direct
// table lookup-only at once, as the star probe's workers share a dimension;
// run under -race, no write may reach the table.
func TestDirectDimensionUnderConcurrentProbes(t *testing.T) {
	dim := newGroupTable(1, nil, 200, true)
	for k := range 200 {
		dim.find([]sqltypes.Value{sqltypes.NewInt(int64(1 + k))}, true)
	}
	if dim.hashed {
		t.Fatal("a dimension keyed 1–200 is hashed")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v sqltypes.Vec
			var hash [stripRows]uint64
			var ords [stripRows]uint32
			keys := []keyCol{{}}
			for round := range 50 {
				xs := v.RefillInts(sqltypes.KindInt, stripRows)
				for i := range xs {
					xs[i] = int64((w*131+round*17+i*7)%260 - 30)
				}
				keys[0].load(&v, 0, stripRows)
				dim.findBatch(keys, []int{0}, hash[:], ords[:], false)
				for i, x := range xs {
					want := noGroup
					if x >= 1 && x <= 200 {
						want = uint32(x - 1)
					}
					if ords[i] != want {
						errs <- fmt.Errorf("worker %d: key %d found %d, want %d", w, x, ords[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
