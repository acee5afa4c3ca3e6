package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// randomTable builds a small table with three low-cardinality int dimensions
// and a value column (some NULLs in the value column).
func randomTable(rng *rand.Rand, rows int) (*catalog.Catalog, *storage.Store) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: sqltypes.KindInt},
			{Name: "b", Type: sqltypes.KindInt},
			{Name: "c", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindInt, Nullable: true},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("t")
	td := store.Create(meta)
	for i := 0; i < rows; i++ {
		v := sqltypes.NewInt(int64(rng.Intn(100)))
		if rng.Intn(8) == 0 {
			v = sqltypes.Null
		}
		td.MustInsert(
			sqltypes.NewInt(int64(rng.Intn(3))),
			sqltypes.NewInt(int64(rng.Intn(4))),
			sqltypes.NewInt(int64(rng.Intn(2))),
			v,
		)
	}
	return cat, store
}

// TestPropertyGroupingSetsAreUnionOfCuboids: for random grouping-set
// combinations, the multidimensional GROUP BY equals the union of its
// NULL-padded simple cuboids (the §5 semantics the matcher relies on).
func TestPropertyGroupingSetsAreUnionOfCuboids(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	colNames := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		cat, store := randomTable(rng, 60+rng.Intn(100))
		engine := NewEngine(store)

		// Random distinct grouping sets over {a, b, c}.
		nSets := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var sets []int // bitmask per set
		for len(sets) < nSets {
			m := rng.Intn(8)
			if !seen[m] {
				seen[m] = true
				sets = append(sets, m)
			}
		}
		setSQL := func(mask int) string {
			var cols []string
			for i, c := range colNames {
				if mask&(1<<i) != 0 {
					cols = append(cols, c)
				}
			}
			return "(" + strings.Join(cols, ", ") + ")"
		}
		var parts []string
		union := 0
		for _, m := range sets {
			parts = append(parts, setSQL(m))
			union |= m
		}
		// Only columns appearing in some grouping set are selectable.
		var selCols []string
		var selIdx []int
		for i, c := range colNames {
			if union&(1<<i) != 0 {
				selCols = append(selCols, c)
				selIdx = append(selIdx, i)
			}
		}
		selList := strings.Join(append(append([]string(nil), selCols...),
			"count(*) as cnt", "sum(v) as sv"), ", ")
		multi := fmt.Sprintf("select %s from t group by grouping sets(%s)",
			selList, strings.Join(parts, ", "))
		g, err := qgm.BuildSQL(multi, cat)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := engine.Run(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Brute force: per-cuboid simple group-by, NULL-padding by hand.
		var want [][]sqltypes.Value
		for _, m := range sets {
			var gb []string
			for i, c := range colNames {
				if m&(1<<i) != 0 {
					gb = append(gb, c)
				}
			}
			var sql string
			if len(gb) == 0 {
				sql = "select count(*) as cnt, sum(v) as sv from t"
			} else {
				sql = fmt.Sprintf("select %s, count(*) as cnt, sum(v) as sv from t group by %s",
					strings.Join(gb, ", "), strings.Join(gb, ", "))
			}
			cg, err := qgm.BuildSQL(sql, cat)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			cres, err := engine.Run(cg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, r := range cres.Rows {
				padded := make([]sqltypes.Value, len(selIdx)+2)
				k := 0
				for j, i := range selIdx {
					if m&(1<<i) != 0 {
						padded[j] = r[k]
						k++
					} else {
						padded[j] = sqltypes.Null
					}
				}
				padded[len(selIdx)] = r[k]
				padded[len(selIdx)+1] = r[k+1]
				want = append(want, padded)
			}
		}
		wantRes := &Result{Cols: got.Cols, Rows: want}
		if diff := EqualResults(wantRes, got); diff != "" {
			t.Fatalf("trial %d (sets %v): %s", trial, sets, diff)
		}
	}
}

// TestThreeValuedLogic: NULL comparisons drop rows, IS NULL sees them, and
// NOT of UNKNOWN stays UNKNOWN.
func TestThreeValuedLogic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat, store := randomTable(rng, 50)
	engine := NewEngine(store)
	run := func(sql string) *Result {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		r, err := engine.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	all := run("select v from t")
	nulls := run("select v from t where v is null")
	lt := run("select v from t where v < 50")
	ge := run("select v from t where v >= 50")
	notLt := run("select v from t where not v < 50")
	if len(lt.Rows)+len(ge.Rows)+len(nulls.Rows) != len(all.Rows) {
		t.Fatalf("partition broken: %d + %d + %d != %d",
			len(lt.Rows), len(ge.Rows), len(nulls.Rows), len(all.Rows))
	}
	// NOT(v < 50) is TRUE only where v >= 50: NULLs stay excluded.
	if len(notLt.Rows) != len(ge.Rows) {
		t.Fatalf("NOT over UNKNOWN must stay UNKNOWN: %d vs %d", len(notLt.Rows), len(ge.Rows))
	}
}

// TestAggregatesSkipNulls: COUNT(v) counts non-NULL only; SUM/MIN/MAX ignore
// NULL; COUNT(*) counts all.
func TestAggregatesSkipNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cat, store := randomTable(rng, 200)
	engine := NewEngine(store)
	g, _ := qgm.BuildSQL("select count(*) as all_rows, count(v) as vcnt, sum(v) as sv from t", cat)
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var wantAll, wantV, wantSum int64
	for _, r := range store.MustTable("t").Snapshot() {
		wantAll++
		if !r[3].IsNull() {
			wantV++
			wantSum += r[3].Int()
		}
	}
	row := res.Rows[0]
	if row[0].Int() != wantAll || row[1].Int() != wantV || row[2].Int() != wantSum {
		t.Fatalf("got %v, want %d %d %d", row, wantAll, wantV, wantSum)
	}
}

// TestNullJoinKeysNeverMatch: equality over NULL is UNKNOWN, so NULL keys
// join with nothing (exercises the hash-join NULL path).
func TestNullJoinKeysNeverMatch(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name:    "l",
		Columns: []catalog.Column{{Name: "k", Type: sqltypes.KindInt, Nullable: true}},
	})
	cat.MustAddTable(&catalog.Table{
		Name:    "r",
		Columns: []catalog.Column{{Name: "k", Type: sqltypes.KindInt, Nullable: true}},
	})
	store := storage.NewStore()
	lm, _ := cat.Table("l")
	rm, _ := cat.Table("r")
	lt := store.Create(lm)
	rt := store.Create(rm)
	lt.MustInsert(sqltypes.NewInt(1))
	lt.MustInsert(sqltypes.Null)
	rt.MustInsert(sqltypes.NewInt(1))
	rt.MustInsert(sqltypes.Null)
	g, err := qgm.BuildSQL("select l.k from l, r where l.k = r.k", cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("NULL keys joined: %v", res.Rows)
	}
}

// TestJoinOrderIndependence: the same 3-way join expressed with different
// FROM orders gives identical results (hash-join planning is order-driven).
func TestJoinOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cat, store := randomTable(rng, 80)
	engine := NewEngine(store)
	q1 := "select t1.a, count(*) as c from t t1, t t2, t t3 where t1.a = t2.a and t2.b = t3.b group by t1.a"
	q2 := "select t1.a, count(*) as c from t t3, t t2, t t1 where t1.a = t2.a and t2.b = t3.b group by t1.a"
	g1, err := qgm.BuildSQL(q1, cat)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := qgm.BuildSQL(q2, cat)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := engine.Run(g1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engine.Run(g2)
	if err != nil {
		t.Fatal(err)
	}
	if diff := EqualResults(r1, r2); diff != "" {
		t.Fatal(diff)
	}
}

// TestScalarSubqueryEmptyAndError: empty scalar subqueries yield NULL;
// multi-row ones error.
func TestScalarSubqueryEmptyAndError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat, store := randomTable(rng, 20)
	engine := NewEngine(store)

	g, err := qgm.BuildSQL("select a, (select v from t where v > 1000) as nothing from t where a = 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if !r[1].IsNull() {
			t.Fatalf("empty scalar subquery should be NULL: %v", r)
		}
	}

	g2, err := qgm.BuildSQL("select a, (select v from t) as multi from t", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(g2); err == nil {
		t.Fatal("multi-row scalar subquery must error")
	}
}

// TestDistinctSelect: SELECT DISTINCT deduplicates exactly.
func TestDistinctSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cat, store := randomTable(rng, 300)
	engine := NewEngine(store)
	g, _ := qgm.BuildSQL("select distinct a, b from t", cat)
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int64]bool{}
	for _, r := range store.MustTable("t").Snapshot() {
		want[[2]int64{r[0].Int(), r[1].Int()}] = true
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("distinct: got %d, want %d", len(res.Rows), len(want))
	}
}

// TestGlobalAggregateOverEmptyInput: COUNT over an empty filter yields one
// row with 0; SUM yields NULL.
func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat, store := randomTable(rng, 20)
	engine := NewEngine(store)
	g, _ := qgm.BuildSQL("select count(*) as c, sum(v) as s from t where a > 999", cat)
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty global aggregate: %v", res.Rows)
	}
	// Grouped aggregate over empty input yields no rows.
	g2, _ := qgm.BuildSQL("select a, count(*) as c from t where a > 999 group by a", cat)
	res2, err := engine.Run(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		t.Fatalf("grouped empty aggregate: %v", res2.Rows)
	}
}

// TestCaseExpression: CASE evaluates arms in order with 3VL conditions.
func TestCaseExpression(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cat, store := randomTable(rng, 100)
	engine := NewEngine(store)
	g, err := qgm.BuildSQL(`select v, case when v is null then -1 when v < 50 then 0 else 1 end as bucket from t`, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		want := int64(1)
		switch {
		case r[0].IsNull():
			want = -1
		case r[0].Int() < 50:
			want = 0
		}
		if r[1].Int() != want {
			t.Fatalf("CASE wrong for %v: got %d", r[0], r[1].Int())
		}
	}
}

// TestDistinctAggregateVariants: SUM/MIN/MAX with DISTINCT against brute
// force.
func TestDistinctAggregateVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cat, store := randomTable(rng, 300)
	engine := NewEngine(store)
	g, err := qgm.BuildSQL(`select a, count(distinct v) as cd, sum(distinct v) as sd,
		min(distinct v) as mind, max(distinct v) as maxd from t group by a`, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		vals map[int64]bool
	}
	want := map[int64]*agg{}
	for _, r := range store.MustTable("t").Snapshot() {
		a := r[0].Int()
		if want[a] == nil {
			want[a] = &agg{vals: map[int64]bool{}}
		}
		if !r[3].IsNull() {
			want[a].vals[r[3].Int()] = true
		}
	}
	for _, r := range res.Rows {
		w := want[r[0].Int()]
		var sum, mn, mx int64
		first := true
		for v := range w.vals {
			sum += v
			if first || v < mn {
				mn = v
			}
			if first || v > mx {
				mx = v
			}
			first = false
		}
		if r[1].Int() != int64(len(w.vals)) {
			t.Fatalf("count distinct: got %v want %d", r[1], len(w.vals))
		}
		if len(w.vals) == 0 {
			if !r[2].IsNull() {
				t.Fatalf("sum distinct over empty should be NULL: %v", r)
			}
			continue
		}
		if r[2].Int() != sum || r[3].Int() != mn || r[4].Int() != mx {
			t.Fatalf("distinct aggs wrong: %v want sum=%d min=%d max=%d", r, sum, mn, mx)
		}
	}
}

// TestSumDistinctFoldsInFirstAppearanceOrder: float addition is not
// associative, so SUM DISTINCT is one answer only if its set folds in one
// order. Group 1's values are spread over three chunks (a duplicate in the
// second), so at two workers each partial sees some of them: 200 runs on the
// interpreter and on the pipeline at one and two workers give one bit pattern.
func TestSumDistinctFoldsInFirstAppearanceOrder(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "f", Columns: []catalog.Column{
		{Name: "g", Type: sqltypes.KindInt},
		{Name: "x", Type: sqltypes.KindFloat},
	}})
	meta, _ := cat.Table("f")
	rows := make([][]sqltypes.Value, 3*storage.ChunkRows)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewFloat(float64(i%7) + 0.25)}
	}
	for i, x := range []float64{1e16, 1, -1e16, 3, 1e16, 0.5, 7e15} {
		rows[i*storage.ChunkRows/3+100] = []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(x)}
	}
	store := storage.NewStore()
	store.PutRows(meta, rows)
	g, err := qgm.BuildSQL("select g, sum(distinct x) as s, count(distinct x) as c from f group by g", cat)
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(store)
	answers := map[string]string{} // answer → the first config that gave it
	for _, cfg := range []Config{{Interpret: true}, {Parallelism: 1}, {Parallelism: 2}} {
		for run := 0; run < 200; run++ {
			res, err := engine.RunCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range res.Rows {
				fmt.Fprintf(&b, "%v:%x:%v ", r[0], math.Float64bits(r[1].Float()), r[2])
			}
			if _, ok := answers[b.String()]; !ok {
				answers[b.String()] = fmt.Sprintf("%+v run %d", cfg, run)
			}
		}
	}
	if len(answers) != 1 {
		t.Fatalf("%d answers over 600 runs: %v", len(answers), answers)
	}
}

// distinctAgg is one aggregate of TestDistinctAggregatesMatchBruteForce: an
// operator, DISTINCT or not, over column col ("" is COUNT(*)).
type distinctAgg struct {
	op       aggOp
	distinct bool
	col      string
}

func (a distinctAgg) sql() string {
	name := [...]string{"count", "sum", "min", "max"}[a.op]
	switch {
	case a.col == "":
		return "count(*)"
	case a.distinct:
		return name + "(distinct " + a.col + ")"
	}
	return name + "(" + a.col + ")"
}

// bruteForce answers a GROUP BY from its rows alone, with no group table:
// per grouping set, groups keyed by the decimal GroupKeys of their values,
// each aggregate over the group's non-NULL arguments in row order — for
// DISTINCT, over each value's first appearance by GroupKey — folded as
// refFold reads the definitions. Output rows are the selected grouping
// columns (NULL when grouped out), then the aggregates, keyed by refKey of
// their grouping columns.
func bruteForce(rows [][]sqltypes.Value, cols map[string]int, groupBy []string, sets [][]string, aggs []distinctAgg) map[string][]sqltypes.Value {
	type group struct {
		out   []sqltypes.Value
		vals  [][]sqltypes.Value // per aggregate: its arguments as it folds them
		seen  []map[string]bool
		count int64
	}
	want := map[string][]sqltypes.Value{}
	for _, set := range sets {
		groups, order := map[string]*group{}, []*group(nil)
		for _, r := range rows {
			out := make([]sqltypes.Value, len(groupBy)+len(aggs))
			for i, c := range groupBy {
				if slices.Contains(set, c) {
					out[i] = r[cols[c]]
				}
			}
			k := refKey(out[:len(groupBy)])
			gr := groups[k]
			if gr == nil {
				gr = &group{out: out, vals: make([][]sqltypes.Value, len(aggs)), seen: make([]map[string]bool, len(aggs))}
				groups[k] = gr
				order = append(order, gr)
			}
			gr.count++
			for ai, a := range aggs {
				if a.col == "" || r[cols[a.col]].IsNull() {
					continue
				}
				v := r[cols[a.col]]
				if a.distinct {
					if gr.seen[ai] == nil {
						gr.seen[ai] = map[string]bool{}
					}
					if gr.seen[ai][v.GroupKey()] {
						continue
					}
					gr.seen[ai][v.GroupKey()] = true
				}
				gr.vals[ai] = append(gr.vals[ai], v)
			}
		}
		for _, gr := range order {
			for ai, a := range aggs {
				v := sqltypes.NewInt(gr.count)
				switch {
				case a.col == "":
				case a.op == opCount:
					v = sqltypes.NewInt(int64(len(gr.vals[ai])))
				default:
					v = refFold(a.op, a.distinct, gr.vals[ai])
				}
				gr.out[len(groupBy)+ai] = v
			}
			want[refKey(gr.out[:len(groupBy)])] = gr.out
		}
	}
	return want
}

// TestDistinctAggregatesMatchBruteForce: COUNT/SUM/MIN/MAX DISTINCT beside
// plain aggregates, under GROUP BY, ROLLUP and a global aggregate, against
// answers computed here from the rows (bruteForce). The argument column holds
// NULLs, 1 and 1.0, −0.0 and 0, and is int in one chunk, float in the next and
// both after that (a generic vector); the string column has NULLs. Every case
// runs on the interpreter and on the pipeline at 1, 2 and 4 workers: serially
// every result is bit for bit, and with more workers too except a plain float
// SUM, which merging may re-associate (1e-9). Two cases pin semantics: DISTINCT
// sees two NaN payloads as one value, as GROUP BY does; and a DISTINCT set
// whose values cannot be added or compared has a NULL SUM, MIN and MAX.
func TestDistinctAggregatesMatchBruteForce(t *testing.T) {
	const n = 5*storage.ChunkRows + 300 // five chunks and a bit: four workers at Parallelism 4
	rng := rand.New(rand.NewSource(26))
	i, f, str := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	ints := []sqltypes.Value{i(0), i(1), i(2), i(-3), i(7), i(1 << 40)}
	floats := []sqltypes.Value{f(1), f(math.Copysign(0, -1)), f(0), f(0.5), f(2.25), f(0.1), f(1e16), f(-1e16), f(7)}
	mixed := func(_ int) sqltypes.Value {
		return slices.Concat(ints, floats, []sqltypes.Value{sqltypes.Null})[rng.Intn(len(ints)+len(floats)+1)]
	}
	byChunk := func(row int) sqltypes.Value {
		switch c := row / storage.ChunkRows; {
		case rng.Intn(6) == 0:
			return sqltypes.Null
		case c == 0:
			return ints[rng.Intn(len(ints))]
		case c == 1:
			return floats[rng.Intn(len(floats))]
		}
		return mixed(row)
	}
	nans := func(row int) sqltypes.Value {
		return [...]sqltypes.Value{f(math.NaN()), f(math.Float64frombits(0xfff8000000000000)), f(float64(row % 3)), sqltypes.Null}[row%4]
	}
	incomparable := func(row int) sqltypes.Value {
		switch row % 5 {
		case 0: // group 0: strings and ints
			return [...]sqltypes.Value{str("a"), i(1), str("b"), i(2)}[row/5%4]
		case 1:
			return ints[row/5%len(ints)]
		case 2:
			return str(fmt.Sprintf("v%d", row/5%4))
		}
		return mixed(row)
	}
	all := func(col string) []distinctAgg {
		return []distinctAgg{{opCount, true, col}, {opSum, true, col}, {opMin, true, col}, {opMax, true, col}}
	}
	plain := []distinctAgg{{opCount, false, ""}, {opCount, false, "x"}, {opSum, false, "x"}, {opMin, false, "x"}, {opMax, false, "x"}}
	strs := []distinctAgg{{opCount, true, "s"}, {opMin, true, "s"}, {opMax, true, "s"}}
	for _, tc := range []struct {
		name    string
		x       func(row int) sqltypes.Value
		groupBy []string
		rollup  bool
		aggs    []distinctAgg
		nullKey []sqltypes.Value // a group whose SUM/MIN/MAX DISTINCT must be NULL
	}{
		{name: "group by", x: byChunk, groupBy: []string{"g"}, aggs: slices.Concat(all("x"), plain, strs)},
		{name: "rollup", x: byChunk, groupBy: []string{"g", "h"}, rollup: true, aggs: slices.Concat(all("x"), plain[:3], strs)},
		{name: "global", x: byChunk, aggs: slices.Concat(all("x"), plain, strs)},
		{name: "global over a generic column", x: mixed, aggs: slices.Concat(all("x"), plain)},
		{name: "two NaN payloads count once", x: nans, groupBy: []string{"g"}, aggs: []distinctAgg{{opCount, true, "x"}, {opCount, false, "x"}}},
		{name: "incomparable DISTINCT set is NULL", x: incomparable, groupBy: []string{"g"}, aggs: all("x"), nullKey: []sqltypes.Value{i(0)}},
	} {
		cat := catalog.New()
		cat.MustAddTable(&catalog.Table{Name: "t", Columns: []catalog.Column{
			{Name: "g", Type: sqltypes.KindInt},
			{Name: "h", Type: sqltypes.KindString},
			{Name: "x", Type: sqltypes.KindFloat, Nullable: true},
			{Name: "s", Type: sqltypes.KindString, Nullable: true},
		}})
		meta, _ := cat.Table("t")
		rows := make([][]sqltypes.Value, n)
		for r := range rows {
			s := str(fmt.Sprintf("s%d", r*7%11))
			if r%9 == 0 {
				s = sqltypes.Null
			}
			rows[r] = []sqltypes.Value{i(int64(r % 5)), str(fmt.Sprintf("h%d", r/7%3)), tc.x(r), s}
		}
		store := storage.NewStore()
		store.PutRows(meta, rows)

		sel := slices.Clone(tc.groupBy)
		for ai, a := range tc.aggs {
			sel = append(sel, fmt.Sprintf("%s as a%d", a.sql(), ai))
		}
		sql, sets := "select "+strings.Join(sel, ", ")+" from t", [][]string{tc.groupBy}
		switch {
		case tc.rollup:
			sql, sets = sql+" group by rollup(g, h)", [][]string{{"g", "h"}, {"g"}, {}}
		case len(tc.groupBy) > 0:
			sql += " group by " + strings.Join(tc.groupBy, ", ")
		}
		want := bruteForce(rows, map[string]int{"g": 0, "h": 1, "x": 2, "s": 3}, tc.groupBy, sets, tc.aggs)
		if tc.nullKey != nil {
			for ai, v := range want[refKey(tc.nullKey)][len(tc.groupBy):] {
				if tc.aggs[ai].op != opCount && !v.IsNull() {
					t.Fatalf("%s: the reference's %s is %v, not NULL", tc.name, tc.aggs[ai].sql(), v)
				}
			}
		}
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		engine := NewEngine(store)
		for _, cfg := range []Config{{Interpret: true}, {Parallelism: 1}, {Parallelism: 2}, {Parallelism: 4}} {
			res, err := engine.RunCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, cfg, err)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("%s %+v: %d rows, reference %d", tc.name, cfg, len(res.Rows), len(want))
			}
			for _, r := range res.Rows {
				w := want[refKey(r[:len(tc.groupBy)])]
				if w == nil {
					t.Fatalf("%s %+v: row %v is not in the reference", tc.name, cfg, r)
				}
				for j, v := range r {
					a := distinctAgg{}
					if j >= len(tc.groupBy) {
						a = tc.aggs[j-len(tc.groupBy)]
					}
					if reassoc := cfg.Parallelism > 1 && a.op == opSum && !a.distinct; reassoc && !valuesClose(v, w[j]) || !reassoc && !sameBits(v, w[j]) {
						t.Fatalf("%s %+v: %s of %v is %v (%s), reference %v (%s)", tc.name, cfg, strings.Split(sel[j], " as ")[0], r[:len(tc.groupBy)], v, v.Kind(), w[j], w[j].Kind())
					}
				}
			}
		}
	}
}

// TestSelectDistinctBoxMatchesTheInterpreter: SELECT DISTINCT, which qgm.Build
// makes a GROUP BY over every output column, dedupes through the group table
// the same on the pipeline as on the interpreter. Over values at every class
// boundary — 1 and 1.0, −0.0 and 0, two NaN payloads, NULL, strings, a column
// that is int, then float, then both — both keep the first of each set of
// equal rows, in order, bit for bit, at one and at two workers.
func TestSelectDistinctBoxMatchesTheInterpreter(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "g", Type: sqltypes.KindInt},
		{Name: "x", Type: sqltypes.KindFloat, Nullable: true},
	}})
	meta, _ := cat.Table("t")
	f := sqltypes.NewFloat
	pool := []sqltypes.Value{sqltypes.NewInt(1), f(1), f(math.Copysign(0, -1)), f(0), sqltypes.NewInt(0), f(math.NaN()),
		f(math.Float64frombits(0xfff8000000000000)), sqltypes.Null, f(2.5), sqltypes.NewString("a"), sqltypes.NewInt(7)}
	rows := make([][]sqltypes.Value, 3*storage.ChunkRows)
	for i := range rows {
		x := pool[(i*7)%len(pool)]
		switch c := i / storage.ChunkRows; {
		case c == 0 && x.Kind() != sqltypes.KindInt:
			x = sqltypes.NewInt(int64(i % 3))
		case c == 1 && x.Kind() != sqltypes.KindFloat:
			x = f(float64(i%3) + 0.5)
		}
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i % 4)), x}
	}
	store := storage.NewStore()
	store.PutRows(meta, rows)
	g, err := qgm.BuildSQL("select distinct x, g % 2 as p from t", cat)
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(store)
	want, err := engine.RunCtx(context.Background(), g, Config{Interpret: true})
	if err != nil || len(want.Rows) >= len(rows)/2 {
		t.Fatalf("interpreter: %v, %d of %d rows left", err, len(want.Rows), len(rows))
	}
	for _, par := range []int{1, 2} {
		got, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
		if err != nil || got.Mode != ModeVectorized || len(got.Rows) != len(want.Rows) {
			t.Fatalf("parallelism %d: %v, mode %s, %d rows, interpreter %d", par, err, got.Mode, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j, v := range want.Rows[i] {
				if !sameBits(got.Rows[i][j], v) {
					t.Fatalf("parallelism %d row %d: %v, interpreter %v", par, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestDateFunctions: YEAR/MONTH/DAY over DATE columns and NULL propagation.
func TestDateFunctions(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "d",
		Columns: []catalog.Column{
			{Name: "dt", Type: sqltypes.KindDate, Nullable: true},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("d")
	td := store.Create(meta)
	td.MustInsert(sqltypes.MustParseDate("1993-07-04"))
	td.MustInsert(sqltypes.Null)
	g, err := qgm.BuildSQL("select year(dt) as y, month(dt) as m, day(dt) as dd from d", cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	SortRows(res.Rows)
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Fatalf("NULL date should propagate: %v", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 1993 || res.Rows[1][1].Int() != 7 || res.Rows[1][2].Int() != 4 {
		t.Fatalf("date parts: %v", res.Rows[1])
	}
}

// TestArithmeticErrorsSurface: division by zero aborts execution with an
// error rather than silently corrupting results.
func TestArithmeticErrorsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cat, store := randomTable(rng, 10)
	g, err := qgm.BuildSQL("select a / (a - a) as boom from t", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(store).Run(g); err == nil {
		t.Fatal("division by zero must error")
	}
}

// TestLikeAndConcat: the LIKE predicate and || operator end to end.
func TestLikeAndConcat(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "names",
		Columns: []catalog.Column{
			{Name: "first", Type: sqltypes.KindString},
			{Name: "last", Type: sqltypes.KindString, Nullable: true},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("names")
	td := store.Create(meta)
	td.MustInsert(sqltypes.NewString("ada"), sqltypes.NewString("lovelace"))
	td.MustInsert(sqltypes.NewString("alan"), sqltypes.NewString("turing"))
	td.MustInsert(sqltypes.NewString("grace"), sqltypes.Null)
	engine := NewEngine(store)
	run := func(sql string) *Result {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		r, err := engine.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	if r := run("select first from names where first like 'a%'"); len(r.Rows) != 2 {
		t.Fatalf("a%%: %v", r.Rows)
	}
	if r := run("select first from names where first like '_da'"); len(r.Rows) != 1 {
		t.Fatalf("_da: %v", r.Rows)
	}
	if r := run("select first from names where first like '%a%a%'"); len(r.Rows) != 2 {
		t.Fatalf("%%a%%a%%: %v", r.Rows) // ada and alan both contain two a's
	}
	// NULL on either side is UNKNOWN: grace drops out of both LIKE and NOT LIKE.
	if r := run("select first from names where last like '%ing'"); len(r.Rows) != 1 {
		t.Fatalf("null like: %v", r.Rows)
	}
	if r := run("select first from names where last not like '%ing'"); len(r.Rows) != 1 {
		t.Fatalf("null not like: %v", r.Rows)
	}
	r := run("select first || ' ' || last as full from names where last is not null")
	SortRows(r.Rows)
	if r.Rows[0][0].Str() != "ada lovelace" || r.Rows[1][0].Str() != "alan turing" {
		t.Fatalf("concat: %v", r.Rows)
	}
	// NULL propagates through concat.
	r = run("select first || last as full from names where first = 'grace'")
	if !r.Rows[0][0].IsNull() {
		t.Fatalf("null concat: %v", r.Rows)
	}
}

// starTables builds a fact table keyed into small dimensions. Some fact keys
// miss dimension d, some are NULL, several d keys carry duplicate rows
// (multi-match join expansion) and one d row has a NULL key; e is keyed by two
// columns, again with duplicates; z is empty. For the probe's key classes: fs
// is a string fact key (some of d's names), df is keyed by floats, dup holds
// one key a thousand times over, and fn is a second fact table whose first
// chunk has nothing but NULL keys.
func starTables(rng *rand.Rand, facts int) (*catalog.Catalog, *storage.Store) {
	cat := catalog.New()
	intCol := func(name string) catalog.Column {
		return catalog.Column{Name: name, Type: sqltypes.KindInt, Nullable: true}
	}
	cat.MustAddTable(&catalog.Table{Name: "f", Columns: []catalog.Column{intCol("fk"), intCol("v"), intCol("g"), {Name: "fs", Type: sqltypes.KindString}}})
	cat.MustAddTable(&catalog.Table{Name: "df", Columns: []catalog.Column{{Name: "fkf", Type: sqltypes.KindFloat}, intCol("fn")}})
	cat.MustAddTable(&catalog.Table{Name: "dup", Columns: []catalog.Column{intCol("uk"), intCol("un")}})
	cat.MustAddTable(&catalog.Table{Name: "fn", Columns: []catalog.Column{intCol("nk"), intCol("nv")}})
	cat.MustAddTable(&catalog.Table{Name: "d", Columns: []catalog.Column{intCol("dk"), {Name: "nm", Type: sqltypes.KindString}}})
	cat.MustAddTable(&catalog.Table{Name: "e", Columns: []catalog.Column{intCol("ek"), intCol("eg"), intCol("w")}})
	cat.MustAddTable(&catalog.Table{Name: "z", Columns: []catalog.Column{intCol("zk"), intCol("zn")}})
	cat.MustAddTable(&catalog.Table{Name: "p", Columns: []catalog.Column{intCol("pk")}})
	cat.MustAddTable(&catalog.Table{Name: "q", Columns: []catalog.Column{intCol("qk"), intCol("qn")}})
	store := storage.NewStore()
	create := func(name string) *storage.TableData {
		meta, _ := cat.Table(name)
		return store.Create(meta)
	}
	fd, dd, ed, pd, qd := create("f"), create("d"), create("e"), create("p"), create("q")
	pd.MustInsert(sqltypes.NewInt(1))
	pd.MustInsert(sqltypes.NewInt(2))
	qd.MustInsert(sqltypes.NewInt(1), sqltypes.NewInt(10))
	qd.MustInsert(sqltypes.NewInt(1), sqltypes.NewInt(11))
	create("z")
	dfd, dupd, fnd := create("df"), create("dup"), create("fn")
	for i := 0; i < 16; i++ {
		dfd.MustInsert(sqltypes.NewFloat(float64(i)/2), sqltypes.NewInt(int64(i))) // 0, 0.5, 1, …: every other key is integral
	}
	for i := 0; i < 1003; i++ {
		dupd.MustInsert(sqltypes.NewInt(int64(3+i/1000)), sqltypes.NewInt(int64(i)))
	}
	for i := 0; i < storage.ChunkRows+200; i++ {
		k := sqltypes.Null
		if i >= storage.ChunkRows {
			k = sqltypes.NewInt(int64(i % 10))
		}
		fnd.MustInsert(k, sqltypes.NewInt(int64(i)))
	}
	for i := 0; i < 12; i++ {
		dd.MustInsert(sqltypes.NewInt(int64(i%8)), sqltypes.NewString(fmt.Sprintf("d%02d", i%5)))
	}
	dd.MustInsert(sqltypes.Null, sqltypes.NewString("dnull"))
	for i := 0; i < 30; i++ {
		ed.MustInsert(sqltypes.NewInt(int64(i%9)), sqltypes.NewInt(int64(i%3)), sqltypes.NewInt(int64(i)))
	}
	fd.MustInsert(sqltypes.NewInt(3), sqltypes.NewInt(0), sqltypes.NewInt(0), sqltypes.NewString("d03")) // joins with everything
	for i := 0; i < facts; i++ {
		k := sqltypes.NewInt(int64(rng.Intn(10)))
		if rng.Intn(10) == 0 {
			k = sqltypes.Null
		}
		v := sqltypes.NewInt(int64(rng.Intn(100)))
		if rng.Intn(8) == 0 {
			v = sqltypes.Null
		}
		fd.MustInsert(k, v, sqltypes.NewInt(int64(rng.Intn(3))), sqltypes.NewString(fmt.Sprintf("d%02d", rng.Intn(7))))
	}
	return cat, store
}

// requireIdentical asserts got matches want row for row, in order, by group
// key (bit-exact for every kind; integer-valued floats share keys with ints,
// the same equivalence the engine's own grouping uses).
func requireIdentical(t *testing.T, sql string, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: row count %d vs %d", sql, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d arity %d vs %d", sql, i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if want.Rows[i][j].GroupKey() != got.Rows[i][j].GroupKey() {
				t.Fatalf("%s: row %d col %d: %v vs %v", sql, i, j, want.Rows[i], got.Rows[i])
			}
		}
	}
}

// TestPropertyVectorizedMatchesRowEngine: over random data and every plan
// shape (chunk filters, grouped and global aggregates, grouping sets, DISTINCT
// aggregates, star-join GROUP BY, join SELECTs, SELECTs over a GROUP BY, joins
// with residual predicates, cross joins, a SELECT with no input), the serial
// pipeline's results are identical to the row path's — same rows, same order,
// same bits (serial float SUMs accumulate in the same order, so no tolerance
// is needed) — and every SELECT and GROUP BY box of the plan runs on the
// pipeline. Join SELECTs aggregate nothing, so they (ordered) must also keep
// the order with two workers.
func TestPropertyVectorizedMatchesRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	run := func(cat *catalog.Catalog, store *storage.Store, sql string, ordered bool, edit func(*qgm.Graph)) *Result {
		t.Helper()
		engine := NewEngine(store)
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if edit != nil {
			edit(g)
		}
		row, err := engine.RunCtx(context.Background(), g, Config{Interpret: true})
		if err != nil {
			t.Fatalf("%s (row): %v", sql, err)
		}
		o := obs.New()
		engine.SetObserver(o)
		vec, err := engine.RunCtx(context.Background(), g, Config{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s (vectorized): %v", sql, err)
		}
		requireIdentical(t, sql, row, vec)
		boxes := 0
		for _, b := range g.Boxes() {
			if b.Kind == qgm.SelectBox || b.Kind == qgm.GroupByBox {
				boxes++
			}
		}
		if n := o.Counter(CtrVecBoxes); vec.Mode != ModeVectorized || n != int64(boxes) {
			t.Fatalf("%s: mode %s, %d of %d boxes on the pipeline", sql, vec.Mode, n, boxes)
		}
		if ordered {
			par, err := engine.RunCtx(context.Background(), g, Config{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s (parallelism 2): %v", sql, err)
			}
			requireIdentical(t, sql+" (parallelism 2)", row, par)
		}
		return vec
	}
	check := func(cat *catalog.Catalog, store *storage.Store, sql string, ordered bool) *Result {
		t.Helper()
		return run(cat, store, sql, ordered, nil)
	}
	tQueries := []string{
		"select a, b, count(*) as cnt, sum(v) as sv from t group by a, b",
		"select a, min(v) as mn, max(v) as mx from t where b < 3 group by a",
		"select c, count(distinct v) as dv, sum(distinct v) as sd from t group by c",
		"select a, b, sum(v) as sv from t group by grouping sets((a, b), (a), ())",
		"select count(*) as cnt, sum(v) as sv from t where a < 2 and c = 1",
		"select v from t where v < 50",
		"select a, b, sum(v) as sv from t group by a, b having count(*) > 20 and sum(v) > 0",
		"select b, n * 2 as n2 from (select a, b, count(*) as n from t group by a, b) x where n > 10",
	}
	starQueries := []string{
		"select nm, count(*) as cnt, sum(v) as sv from f, d where fk = dk group by nm",
		"select nm, min(v) as mn, max(v) as mx from f, d where fk = dk and dk < 6 group by nm",
		"select dk, sum(v) as sv from f, d where fk = dk and v < 50 group by dk",
	}
	// Join SELECTs, every one on the star probe: NULL keys on both sides and
	// duplicate dimension keys (fk = dk), two dimensions with a two-column key
	// (tuple order: fact-row major, d outer, e inner), an empty dimension,
	// a dimension tied to the fact and to an earlier dimension, a dimension
	// that is a GROUP BY, the small table first in FROM, DISTINCT,
	// a scalar subquery in the output list, fact-local and dimension-local
	// predicates together. Then the probe's key classes: an int fact key
	// against a float dimension key (1 = 1.0 joins, 1 = 0.5 does not), a
	// two-column key of a string and an int, a thousand dimension rows under one
	// key (they come out in dimension row order), a chunk of nothing but NULL
	// fact keys.
	joinQueries := []string{
		"select fk, v, nm from f, d where fk = dk",
		"select v, nm, w from f, d, e where fk = dk and ek = fk and g = eg",
		"select v, nm, w from f, d, e where fk = dk and dk = ek and g = eg", // e tied to the fact and to d: the d tie filters the joined chunk
		"select v, zn from f, z where fk = zk",
		"select v, c from f, (select dk, count(*) as c from d group by dk) dd where fk = dd.dk",
		"select nm, v from d, f where fk = dk",
		"select distinct nm, fk from f, d where fk = dk",
		"select v, (select count(*) from d) as nd, nm from f, d where dk = fk",
		"select v * 2 as v2, nm || '!' as nx from f, d where fk = dk and v < 50 and dk < 6 and nm <> 'd03'",
		"select v / (fk - 9) as q, nm from f, d where fk = dk", // fk = 9 never joins: no division by zero
	}
	keyClassQueries := []string{ // every one of them finds matches
		"select fk, fkf, fn from f, df where fk = fkf",
		"select v, dk, nm from f, d where fs = nm and fk = dk",
		"select fk, v, un from f, dup where fk = uk and v < 3",
		"select nv, nm from fn, d where nk = dk",
		"select pk, qn from p, q where pk = qk", // as many tuples as fact rows, one of them twice
	}
	// Joins whose tuples only the joined chunk holds: a dimension no equality
	// ties to the fact (a cross join, under a SELECT and under a GROUP BY), a
	// predicate across operands, an equality between two dimensions (in FROM
	// order, and the other way round, where the row path joins d before e), a
	// constant predicate, an output and an aggregate argument over two
	// operands, an output that fails on the dimension rows a dimension-local
	// predicate drops, and a joined column emitted twice. Then dimensions keyed
	// on an earlier dimension (a snowflake): last, with a thousand rows under
	// one key; a chain of three, the middle one filtered; on an expression; on
	// a dimension no equality ties to the fact; under a GROUP BY.
	residualQueries := []string{
		"select v, nm from f, d where v < 5",
		"select nm, count(*) as c, sum(v) as sv from f, d group by nm",
		"select v, nm from f, d where fk = dk and v < dk * 20",
		"select v, w from f, d, e where fk = dk and dk = ek",
		"select v, w, nm from f, e, d where fk = dk and dk = ek",
		"select v, nm from f, d where fk = dk and (select count(*) from z) = 0",
		"select v + dk as x from f, d where fk = dk",
		"select nm, sum(v + dk) as x from f, d where fk = dk group by nm",
		"select v, 10 / (dk - 3) as q from f, d where fk = dk and dk <> 3",
		"select nm, v, nm as again from f, d where fk = dk and v < 50", // one joined column emitted twice
		"select v, nm, un from f, d, dup where fk = dk and dk = uk",
		"select v, un, w from f, d, dup, e where fk = dk and uk = dk and ek = uk and un < 5",
		"select v, w from f, d, e where fk = dk and ek = dk + 1",
		"select nm, w from f, d, e where ek = dk and v < 3",
		"select nm, count(*) as c, sum(w) as sw from f, d, e where fk = dk and dk = ek group by nm",
	}
	for trial := 0; trial < 12; trial++ {
		cat, store := randomTable(rng, 50+rng.Intn(1500))
		for _, sql := range tQueries {
			check(cat, store, sql, false)
		}
		facts := 50 + rng.Intn(1500)
		if trial%4 == 3 {
			facts += 2 * parallelMinRows // enough chunks for two workers
		}
		scat, sstore := starTables(rng, facts)
		for i, sql := range slices.Concat(starQueries, joinQueries, keyClassQueries) {
			vec := check(scat, sstore, sql, i >= len(starQueries))
			if i >= len(starQueries)+len(joinQueries) && len(vec.Rows) == 0 {
				t.Fatalf("%s: no rows", sql)
			}
		}
		for _, sql := range residualQueries {
			if vec := check(scat, sstore, sql, true); len(vec.Rows) == 0 {
				t.Fatalf("%s: no rows", sql)
			}
		}
		// A SELECT with no input reads one empty row; qgm.Build requires
		// FROM, so the graph is edited into the shape.
		if vec := run(scat, sstore, "select 7 as k, 2 * 3 as six from z where 1 = 1", true, func(g *qgm.Graph) { g.Root.Quantifiers = nil }); len(vec.Rows) != 1 {
			t.Fatalf("a SELECT with no input: %d rows", len(vec.Rows))
		}
	}

	// Disjunctions of key tuples (x IN (…), a scoped recompute's group keys):
	// the probe takes the rows it should, lifting nothing — float constants
	// and float columns, NaN and -0.0 among them, included. The others run
	// the predicate a row at a time: terms named in different orders at
	// compile time; per chunk, where a term could fail (the generic chunk of
	// m) or where a key kernel fails. All of them answer as the interpreter
	// does, serially and at two workers; so does an int against a float
	// beyond 2^53.
	kcat, kstore := keyTable()
	tuples := func(n int) string {
		ors := make([]string, n)
		for i := range ors {
			ors[i] = fmt.Sprintf("(g = %d and year(d) = %d and month(d) = %d)", i%7, 1990+i%4, 1+i%13)
		}
		return strings.Join(ors, " or ")
	}
	for _, tc := range []struct {
		sql   string
		probe bool
	}{
		{"select g, d, n from k where " + tuples(1), true},
		{"select g, year(d) as y, month(d) as mo, min(n) as lo, max(n) as hi, count(*) as c from k where " + tuples(64) +
			" group by g, year(d), month(d)", true},
		{"select g, d, s from k where " + tuples(300), true},
		{"select g, n, s from k where g in (1, 3, 5)", true},
		{"select g, n from k where (g = 1 and n is null) or (g = 2 and n = 3) or (n is null and g = 4)", false}, // the third names its terms in another order
		{"select g, n from k where (g = 1 and n is null) or (g = 2 and n = 3) or (g = 4 and n is null)", true},
		{"select g, s from k where s in ('s1', 's4', 'zz') or s is null", true},
		{"select g, s from k where (s = 's2' and g = 2) or (s = 's3' and g = 3)", true},
		{"select g, d from k where d = DATE '1990-01-01' or d = DATE '1991-02-02'", true},
		{"select g, n from k where g = 1.0 or g = 1.5", true},
		{"select g, x from k where x = 1 or x = 0", true},
		{"select g, x from k where x in (1.5, 2.5)", true},
		{"select g, n from k where n > 9007199254740992.0", true}, // 2^53 + 1 against 2^53, exactly
		{"select g, x, y from k where x < y", true},               // a float chunk of y is generic
		{"select g, m from k where m = 3 or m = 4", false},
		// 10 / g fails where g = 0, a row the interpreter never divides on.
		{"select g from k where (g = 1 and 10 / g = 10) or (g = 2 and 10 / g = 5)", false},
	} {
		if vec := check(kcat, kstore, tc.sql, true); len(vec.Rows) == 0 {
			t.Fatalf("%s: no rows", tc.sql)
		}
		o := obs.New()
		engine := NewEngine(kstore)
		engine.SetObserver(o)
		g, err := qgm.BuildSQL(tc.sql, kcat)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if _, err := engine.RunCtx(context.Background(), g, Config{Parallelism: 2}); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if lifted := o.Counter(CtrVecLifted); (lifted == 0) != tc.probe {
			t.Fatalf("%s: %d lifted", tc.sql, lifted)
		}
	}
}

// keyTable builds k over the kinds a key-set probe and a typed kernel meet, in
// three chunks and a bit: g int, d date, n nullable int (one of them 2^53 +
// 1), s string with NULLs, x float with NaNs and -0.0s, m, an int column whose
// second chunk also holds floats (a generic vector), and y, the same for a
// float column. Then nullable columns with NULLs mid-chunk: e date, z float
// (NaNs of two payloads, -0.0 beside 0, 2^53) and w int, never 0.
func keyTable() (*catalog.Catalog, *storage.Store) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "k", Columns: []catalog.Column{
		{Name: "g", Type: sqltypes.KindInt},
		{Name: "d", Type: sqltypes.KindDate},
		{Name: "n", Type: sqltypes.KindInt, Nullable: true},
		{Name: "s", Type: sqltypes.KindString, Nullable: true},
		{Name: "x", Type: sqltypes.KindFloat},
		{Name: "m", Type: sqltypes.KindInt},
		{Name: "y", Type: sqltypes.KindFloat},
		{Name: "e", Type: sqltypes.KindDate, Nullable: true},
		{Name: "z", Type: sqltypes.KindFloat, Nullable: true},
		{Name: "w", Type: sqltypes.KindInt, Nullable: true},
	}})
	meta, _ := cat.Table("k")
	rows := make([][]sqltypes.Value, 3*storage.ChunkRows+300)
	for i := range rows {
		n, s, m := sqltypes.NewInt(int64(i%5)), sqltypes.NewString(fmt.Sprintf("s%d", i%6)), sqltypes.NewInt(int64(i%9))
		if i%4 == 0 {
			n = sqltypes.Null
		} else if i == 7 {
			n = sqltypes.NewInt(1<<53 + 1)
		}
		if i%10 == 0 {
			s = sqltypes.Null
		}
		y := sqltypes.NewFloat(float64(i%3) + 0.25)
		if i/storage.ChunkRows == 1 && i%5 == 0 {
			m, y = sqltypes.NewFloat(float64(i%9)+0.5*float64(i%2)), sqltypes.NewInt(int64(i%3))
		}
		x := float64(i%4) / 2
		switch i % 11 {
		case 3:
			x = math.NaN()
		case 4:
			x = math.Copysign(0, -1)
		}
		e, z, w := sqltypes.NewDate(1990+i%4, 1+i%12, 1+i%28), sqltypes.NewFloat(float64(i%5)+0.5*float64(i%2)), sqltypes.NewInt(int64(i%6-2))
		switch i % 13 {
		case 1:
			e, w = sqltypes.Null, sqltypes.Null
		case 2:
			z = sqltypes.Null
		case 3:
			z = sqltypes.NewFloat(math.NaN())
		case 4:
			z = sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000001))
		case 5:
			z = sqltypes.NewFloat(math.Copysign(0, -1))
		case 6:
			z = sqltypes.NewFloat(1 << 53)
		}
		if i%6 == 2 {
			w = sqltypes.NewInt(5)
		}
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i % 7)), sqltypes.NewDate(1990+i%3, 1+i%12, 1+i%28), n, s,
			sqltypes.NewFloat(x), m, y, e, z, w}
	}
	store := storage.NewStore()
	store.PutRows(meta, rows)
	return cat, store
}

// TestKernelParity is the typed kernels' table, over keyTable: a comparison
// under each operator over each typed pairing of kinds (int, date, float, int
// and float either way, string), between two columns and with the constant on
// either side; +, -, *, / and % over the same pairings (|| over strings, which
// qgm refuses to add); year, month and day
// over dates with NULLs. Each row runs over whole chunks and over a selection
// an earlier conjunct narrowed, and answers as the interpreter does — the
// same rows, bit for bit (sqltypes.Same), or the same error — serially and at
// two workers, with nothing lifted.
func TestKernelParity(t *testing.T) {
	cat, store := keyTable()
	pairings := []struct{ kind, col, other, c string }{ // col against another column and against a constant
		{"int", "n", "w", "2"},
		{"date", "e", "d", "DATE '1991-06-06'"},
		{"float", "z", "x", "0.0"},
		{"int-float", "n", "z", "9007199254740992.0"},
		{"float-int", "z", "w", "9007199254740993"},
		{"string", "s", "s", "'s3'"},
	}
	type row struct{ name, sql string }
	var rows []row
	add := func(name, sel, where string) {
		for _, narrowed := range []bool{false, true} {
			w, n := where, "whole"
			if narrowed {
				w, n = "g <> 2 and "+where, "narrowed"
				if where == "" {
					w = "g <> 2"
				}
			}
			if w != "" {
				w = " where " + w
			}
			rows = append(rows, row{name + " " + n, "select " + sel + " from k" + w})
		}
	}
	for _, p := range pairings {
		for _, form := range [][2]string{{p.col, p.other}, {p.col, p.c}, {p.c, p.col}} {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				pred := form[0] + " " + op + " " + form[1]
				add("cmp "+p.kind+" "+pred, "g, d, n, s, x, e, z, w", pred)
			}
			ops := []string{"+", "-", "*", "/", "%"}
			if p.kind == "string" {
				ops = []string{"||"}
			}
			for _, op := range ops {
				expr := form[0] + " " + op + " " + form[1]
				add("arith "+p.kind+" "+expr, "g, "+expr+" as v", "")
			}
		}
	}
	for _, f := range []string{"year", "month", "day"} {
		for _, arg := range []string{"e", "d"} {
			add(f+" "+arg, fmt.Sprintf("g, %s(%s) as v", f, arg), "")
		}
	}
	engine := NewEngine(store)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			g, err := qgm.BuildSQL(r.sql, cat)
			if err != nil {
				t.Fatalf("%s: %v", r.sql, err)
			}
			want, wantErr := engine.RunCtx(context.Background(), g, Config{Interpret: true})
			for _, par := range []int{1, 2} {
				o := obs.New()
				engine.SetObserver(o)
				got, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
				engine.SetObserver(nil)
				if lifted := o.Counter(CtrVecLifted); lifted != 0 {
					t.Fatalf("%s (parallelism %d): %d lifted", r.sql, par, lifted)
				}
				if wantErr != nil || err != nil {
					if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s (parallelism %d): error %v, interpreter's %v", r.sql, par, err, wantErr)
					}
					continue
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s (parallelism %d): %d rows, interpreter's %d", r.sql, par, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if !slices.EqualFunc(got.Rows[i], want.Rows[i], sqltypes.Same) {
						t.Fatalf("%s (parallelism %d): row %d %v, interpreter's %v", r.sql, par, i, got.Rows[i], want.Rows[i])
					}
				}
			}
		})
	}
}

// TestJoinSelectErrorParity: an output expression of a join SELECT is
// evaluated on the tuples the join and the filters keep, and on no others.
func TestJoinSelectErrorParity(t *testing.T) {
	cat, store := starTables(rand.New(rand.NewSource(5)), 3000)
	engine := NewEngine(store)
	run := func(sql string, cfg Config) (*Result, error) {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return engine.RunCtx(context.Background(), g, cfg)
	}
	for _, par := range []int{1, 2} {
		// Every tuple removed — by the join, by a dimension-local predicate, by
		// a fact-local one: zero rows, not a division by zero.
		for _, sql := range []string{
			"select v / (v - v) as boom from f, z where fk = zk",
			"select v / (v - v) as boom from f, d where fk = dk and dk > 100",
			"select v / (v - v) as boom from f, d where fk = dk and v < 0",
		} {
			res, err := run(sql, Config{Parallelism: par})
			if err != nil || len(res.Rows) != 0 {
				t.Fatalf("%s (parallelism %d): %v, %d rows", sql, par, err, len(res.Rows))
			}
		}
		// The same expression on surviving tuples raises the row path's error.
		sql := "select v / (v - v) as boom from f, d where fk = dk"
		_, want := run(sql, Config{Interpret: true})
		_, got := run(sql, Config{Parallelism: par})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s (parallelism %d): vectorized error %v, row path %v", sql, par, got, want)
		}
	}
}

// TestBoxErrorsAgainstTheInterpreter: where a box fails, the pipeline fails
// as Config.Interpret does, with its error text, serially and at two workers.
// The first three rows are box shapes qgm.Build never emits — a column
// reference bound to no quantifier, a GROUP BY over two children, a GROUP BY
// output column neither grouped nor aggregated — so they edit a built graph
// into the shape. The next two pin one of the two places the two differ
// (DESIGN.md §13): the pipeline evaluates a dimension-local predicate on every
// row of the dimension while hashing it, so it raises an error on a row no
// fact row joins (dk = 7: the fact rows with fk = 7 are filtered out), which the row
// path raises only when that table comes first in FROM. The last row pins the
// other place: a dimension keyed on an earlier one (e on d) is looked up from
// every row of d that d's own predicates keep, so the key 10 / (dk - 7) fails
// on a row of d that no fact row joins, where the row path evaluates it on
// joined tuples only.
func TestBoxErrorsAgainstTheInterpreter(t *testing.T) {
	cat, store := starTables(rand.New(rand.NewSource(6)), 600)
	groupByBox := func(g *qgm.Graph) *qgm.Box {
		b := g.Root
		for b.Kind != qgm.GroupByBox {
			b = b.Quantifiers[0].Box
		}
		return b
	}
	for _, tc := range []struct {
		sql              string
		edit             func(g *qgm.Graph)
		interpreterFails bool
	}{
		{sql: "select v from f", interpreterFails: true,
			edit: func(g *qgm.Graph) { g.Root.Cols[0].Expr = &qgm.ColRef{} }},
		{sql: "select fk, count(*) as c from f group by fk", interpreterFails: true,
			edit: func(g *qgm.Graph) {
				b := groupByBox(g)
				b.Quantifiers = append(b.Quantifiers, b.Quantifiers[0])
			}},
		{sql: "select fk, count(*) as c from f group by fk", interpreterFails: true,
			edit: func(g *qgm.Graph) { groupByBox(g).Cols[1].Expr = qgm.NewConst(sqltypes.NewInt(1)) }},
		{sql: "select v, nm from f, d where fk = dk and fk < 7 and 10 / (dk - 7) <> 0"},
		{sql: "select v, nm from d, f where fk = dk and fk < 7 and 10 / (dk - 7) <> 0", interpreterFails: true},
		{sql: "select v, w from f, d, e where fk = dk and fk < 7 and ek = 10 / (dk - 7) + 10"},
	} {
		g, err := qgm.BuildSQL(tc.sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if tc.edit != nil {
			tc.edit(g)
		}
		engine := NewEngine(store)
		want, wantErr := engine.RunCtx(context.Background(), g, Config{Interpret: true})
		if (wantErr != nil) != tc.interpreterFails || wantErr == nil && len(want.Rows) == 0 {
			t.Fatalf("%s: interpreter error %v", tc.sql, wantErr)
		}
		for _, par := range []int{1, 2} {
			_, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
			if err == nil || wantErr != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s (parallelism %d): error %v, interpreter's %v", tc.sql, par, err, wantErr)
			}
		}
	}
}

// TestHashJoinKeysNaNAsEquality: the row path's hash join keeps the rows its
// own `=` keeps. Two NaNs with different payloads compare equal, so the join
// of a(ak, af) and b(bk, bf) on af = bf returns their one pair under the
// interpreter as on the pipeline, and so does the self-comparison.
func TestHashJoinKeysNaNAsEquality(t *testing.T) {
	cat := catalog.New()
	store := storage.NewStore()
	for _, tb := range []struct {
		name, k, f string
		nan        float64
	}{{"a", "ak", "af", math.NaN()}, {"b", "bk", "bf", math.Float64frombits(0xfff8000000000000)}} {
		cat.MustAddTable(&catalog.Table{Name: tb.name, Columns: []catalog.Column{
			{Name: tb.k, Type: sqltypes.KindInt},
			{Name: tb.f, Type: sqltypes.KindFloat},
		}})
		meta, _ := cat.Table(tb.name)
		store.PutRows(meta, [][]sqltypes.Value{{sqltypes.NewInt(1), sqltypes.NewFloat(tb.nan)}})
	}
	engine := NewEngine(store)
	for _, sql := range []string{"select ak, bk from a, b where af = bf", "select ak from a where af = af"} {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{Interpret: true}, {Parallelism: 1}} {
			res, err := engine.RunCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Errorf("%s (interpret %v): %d rows, want 1", sql, cfg.Interpret, len(res.Rows))
			}
		}
	}
}
