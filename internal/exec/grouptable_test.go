package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
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
	tab := newGroupTable(2, []aggSpec{countStar, countStar})
	key := func(i int) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewString(fmt.Sprintf("k%05d", i)), sqltypes.NewInt(int64(i % 3))}
	}
	for i := 0; i < n; i++ {
		if g := tab.find(key(i)); g != i || tab.n != i+1 {
			t.Fatalf("insert %d: ordinal %d, len %d", i, g, tab.n)
		}
		tab.aggs.at(i)[1] = int64(i)
	}
	for i := n - 1; i >= 0; i-- {
		if g := tab.find(key(i)); g != i || tab.n != n {
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

// TestGroupTableMergeKeepsFirstAppearance: merging a later partial appends
// its new groups after the earlier partial's, keeps the earlier partial's
// representative for shared groups, and combines their states. The shared
// groups' key column is int in one partial and float in the other.
func TestGroupTableMergeKeepsFirstAppearance(t *testing.T) {
	fill := func(keys ...sqltypes.Value) *groupTable {
		tab := newGroupTable(1, countStars)
		for _, k := range keys {
			tab.aggs.at(tab.find([]sqltypes.Value{k}))[0]++
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
// the empty grouping set (whose one group is there before any row), lookup-only
// calls, the one-row find, and mergeFrom
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
				r := ref{ords: map[string]int{}}
				if len(gs) == 0 { // the empty grouping set's one group is there from the start
					r = ref{ords: map[string]int{refKey(nil): 0}, count: []int64{0}, first: [][]sqltypes.Value{{}}}
				}
				tabs[side] = append(tabs[side], newGroupTable(len(gs), countStars))
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
					tab.aggs.at(want)[0]++
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
// A SUM that cannot add must fail on both routes.
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
		whole := newGroupTable(nCols, specs)
		parts := [2]*groupTable{newGroupTable(nCols, specs), newGroupTable(nCols, specs)}
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
					got[0] = uint32(tab.find(key(di)))
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
