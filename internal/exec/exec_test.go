package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fixture builds the star schema with a small deterministic dataset.
func fixture(t testing.TB, n int) (*catalog.Catalog, *storage.Store, *Engine) {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: n, Seed: 42})
	return cat, store, NewEngine(store)
}

func run(t testing.TB, cat *catalog.Catalog, e *Engine, sql string) *Result {
	t.Helper()
	g, err := qgm.BuildSQL(sql, cat)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	res, err := e.Run(g)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res
}

func TestSimpleScan(t *testing.T) {
	cat, store, e := fixture(t, 500)
	res := run(t, cat, e, "select tid, qty from trans")
	if len(res.Rows) != store.MustTable("trans").Cardinality() {
		t.Fatalf("got %d rows, want %d", len(res.Rows), store.MustTable("trans").Cardinality())
	}
	if len(res.Cols) != 2 || res.Cols[0] != "tid" || res.Cols[1] != "qty" {
		t.Fatalf("bad columns %v", res.Cols)
	}
}

func TestWherePredicate(t *testing.T) {
	cat, store, e := fixture(t, 500)
	res := run(t, cat, e, "select tid from trans where qty > 3")
	want := 0
	for _, r := range store.MustTable("trans").Snapshot() {
		if r[5].Int() > 3 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(res.Rows), want)
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	cat, store, e := fixture(t, 300)
	res := run(t, cat, e, "select tid, country from trans, loc where flid = lid and country = 'USA'")
	// Brute force.
	locs := map[int64]string{}
	for _, r := range store.MustTable("loc").Snapshot() {
		locs[r[0].Int()] = r[3].Str()
	}
	want := 0
	for _, r := range store.MustTable("trans").Snapshot() {
		if locs[r[3].Int()] == "USA" {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(res.Rows), want)
	}
}

func TestGroupByCount(t *testing.T) {
	cat, store, e := fixture(t, 400)
	res := run(t, cat, e, "select faid, count(*) as cnt from trans group by faid")
	counts := map[int64]int64{}
	for _, r := range store.MustTable("trans").Snapshot() {
		counts[r[1].Int()]++
	}
	if len(res.Rows) != len(counts) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(counts))
	}
	for _, r := range res.Rows {
		if counts[r[0].Int()] != r[1].Int() {
			t.Fatalf("account %d: got %d, want %d", r[0].Int(), r[1].Int(), counts[r[0].Int()])
		}
	}
}

func TestQ1EndToEnd(t *testing.T) {
	cat, store, e := fixture(t, 2000)
	// Paper Figure 2, Q1 (threshold lowered so the small fixture has hits).
	res := run(t, cat, e, `
		select faid, state, year(date) as year, count(*) as cnt
		from trans, loc
		where flid = lid and country = 'USA'
		group by faid, state, year(date)
		having count(*) > 5`)

	// Brute force.
	type locInfo struct{ state, country string }
	locs := map[int64]locInfo{}
	for _, r := range store.MustTable("loc").Snapshot() {
		locs[r[0].Int()] = locInfo{r[2].Str(), r[3].Str()}
	}
	type key struct {
		faid  int64
		state string
		year  int64
	}
	counts := map[key]int64{}
	for _, r := range store.MustTable("trans").Snapshot() {
		li := locs[r[3].Int()]
		if li.country != "USA" {
			continue
		}
		counts[key{r[1].Int(), li.state, r[4].DateYear()}]++
	}
	want := map[key]int64{}
	for k, c := range counts {
		if c > 5 {
			want[k] = c
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		k := key{r[0].Int(), r[1].Str(), r[2].Int()}
		if want[k] != r[3].Int() {
			t.Fatalf("group %+v: got %d, want %d", k, r[3].Int(), want[k])
		}
	}
}

func TestScalarSubquery(t *testing.T) {
	cat, store, e := fixture(t, 150)
	res := run(t, cat, e, "select tid, (select count(*) from loc) as nloc from trans where qty >= 1")
	nloc := int64(store.MustTable("loc").Cardinality())
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r[1].Int() != nloc {
			t.Fatalf("got nloc=%d, want %d", r[1].Int(), nloc)
		}
	}
}

func TestDerivedTable(t *testing.T) {
	cat, _, e := fixture(t, 300)
	res1 := run(t, cat, e, `
		select year, count(*) as ycnt
		from (select year(date) as year, count(*) as cnt from trans group by year(date), faid) t
		group by year`)
	res2 := run(t, cat, e, "select year(date) as year, count(distinct faid) as n from trans group by year(date)")
	if len(res1.Rows) != len(res2.Rows) {
		t.Fatalf("year counts disagree: %d vs %d", len(res1.Rows), len(res2.Rows))
	}
}

// TestFigure12CubeSemantics reproduces the paper's Figure 12 sample exactly:
// an 8-row Trans table grouped by gs((flid, year), (year, faid)) — the paper
// shows the result of a grouping-sets query with NULL-padded columns.
func TestFigure12CubeSemantics(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "trans",
		Columns: []catalog.Column{
			{Name: "flid", Type: sqltypes.KindInt},
			{Name: "year", Type: sqltypes.KindInt},
			{Name: "faid", Type: sqltypes.KindInt},
		},
	})
	store := storage.NewStore()
	td := store.Create(mustTable(cat, "trans"))
	data := [][3]int64{
		{1, 1990, 100},
		{1, 1991, 100},
		{1, 1991, 200},
		{1, 1991, 300},
		{1, 1992, 100},
		{1, 1992, 400},
		{2, 1991, 400},
		{2, 1991, 400},
	}
	for _, d := range data {
		td.MustInsert(sqltypes.NewInt(d[0]), sqltypes.NewInt(d[1]), sqltypes.NewInt(d[2]))
	}
	e := NewEngine(store)
	res := run(t, cat, e, `
		select flid, year, faid, count(*) as cnt
		from trans
		group by grouping sets((flid, year), (year, faid))`)

	// Expected result from the paper's Figure 12 (flid, year, faid, cnt);
	// -1 encodes NULL.
	want := [][4]int64{
		{1, 1990, -1, 1},
		{1, 1991, -1, 3},
		{1, 1992, -1, 2},
		{2, 1991, -1, 2},
		{-1, 1990, 100, 1},
		{-1, 1991, 100, 1},
		{-1, 1991, 200, 1},
		{-1, 1991, 300, 1},
		{-1, 1992, 100, 1},
		{-1, 1992, 400, 1},
		{-1, 1991, 400, 2},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%v", len(res.Rows), len(want), res.Rows)
	}
	counts := map[[4]int64]int{}
	for _, r := range res.Rows {
		var k [4]int64
		for i, v := range r {
			if v.IsNull() {
				k[i] = -1
			} else {
				k[i] = v.Int()
			}
		}
		counts[k]++
	}
	for _, w := range want {
		if counts[w] != 1 {
			t.Fatalf("expected row %v exactly once, got %d; result %v", w, counts[w], res.Rows)
		}
	}
}

func mustTable(cat *catalog.Catalog, name string) *catalog.Table {
	tb, ok := cat.Table(name)
	if !ok {
		panic("missing table " + name)
	}
	return tb
}

func TestRollupSemantics(t *testing.T) {
	cat, store, e := fixture(t, 200)
	res := run(t, cat, e, `
		select year(date) as y, month(date) as m, count(*) as cnt
		from trans group by rollup(year(date), month(date))`)
	// The grand-total row should count everything.
	total := int64(store.MustTable("trans").Cardinality())
	var grand, yearTotals, monthRows int
	for _, r := range res.Rows {
		switch {
		case r[0].IsNull() && r[1].IsNull():
			grand++
			if r[2].Int() != total {
				t.Fatalf("grand total %d, want %d", r[2].Int(), total)
			}
		case !r[0].IsNull() && r[1].IsNull():
			yearTotals++
		default:
			monthRows++
		}
	}
	if grand != 1 {
		t.Fatalf("expected exactly one grand-total row, got %d", grand)
	}
	if yearTotals == 0 || monthRows == 0 {
		t.Fatalf("rollup missing levels: years=%d months=%d", yearTotals, monthRows)
	}
}

func TestDistinctAggregates(t *testing.T) {
	cat, store, e := fixture(t, 400)
	res := run(t, cat, e, "select count(distinct faid) as n from trans")
	distinct := map[int64]bool{}
	for _, r := range store.MustTable("trans").Snapshot() {
		distinct[r[1].Int()] = true
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(len(distinct)) {
		t.Fatalf("got %v, want %d", res.Rows, len(distinct))
	}
}

func TestEqualResultsDetectsDifference(t *testing.T) {
	a := &Result{Cols: []string{"x"}, Rows: [][]sqltypes.Value{{sqltypes.NewInt(1)}}}
	b := &Result{Cols: []string{"x"}, Rows: [][]sqltypes.Value{{sqltypes.NewInt(2)}}}
	if msg := EqualResults(a, b); msg == "" {
		t.Fatal("expected difference")
	}
	if msg := EqualResults(a, a); msg != "" {
		t.Fatalf("expected equal, got %s", msg)
	}
	// NaN — of any payload — and infinities in the same rows are equal, and
	// NaN is not a number near it.
	res := func(vs ...float64) *Result {
		r := &Result{Cols: []string{"x"}}
		for _, v := range vs {
			r.Rows = append(r.Rows, []sqltypes.Value{sqltypes.NewFloat(v)})
		}
		return r
	}
	nan, other := math.NaN(), math.Float64frombits(0x7ff8000000000042)
	if msg := EqualResults(res(nan, 1, math.Inf(1)), res(math.Inf(1), other, 1)); msg != "" {
		t.Fatalf("equal answers reported different: %s", msg)
	}
	if msg := EqualResults(res(nan, 1), res(1, 1)); msg == "" {
		t.Fatal("NaN reported equal to 1.0")
	}
}

// TestSortRowsIsOneOrder: SortRows puts every permutation of a row set that
// holds NaN, infinities, -0.0, NULL and mixed ints and floats in one order.
func TestSortRowsIsOneOrder(t *testing.T) {
	f, i := sqltypes.NewFloat, sqltypes.NewInt
	rows := [][]sqltypes.Value{
		{f(math.NaN()), i(1)}, {f(1), i(1)}, {f(math.Inf(-1)), i(1)}, {f(math.Inf(1)), i(1)},
		{sqltypes.Null, i(1)}, {i(2), i(1)}, {f(math.Copysign(0, -1)), i(3)},
	}
	var want string
	var permute func(k int)
	permute = func(k int) { // Heap's algorithm: every order of rows[:k]
		if k == 1 {
			sorted := append([][]sqltypes.Value(nil), rows...)
			SortRows(sorted)
			if got := fmt.Sprint(sorted); want == "" {
				want = got
			} else if got != want {
				t.Fatalf("SortRows(%v) = %s, but %s for another order", rows, got, want)
			}
			return
		}
		for j := range k {
			permute(k - 1)
			if k%2 == 0 {
				rows[j], rows[k-1] = rows[k-1], rows[j]
			} else {
				rows[0], rows[k-1] = rows[k-1], rows[0]
			}
		}
	}
	permute(len(rows))
	if want != "[[NULL 1] [-Infinity 1] [-0.0 3] [1.0 1] [2 1] [Infinity 1] [NaN 1]]" {
		t.Fatalf("SortRows order %s", want)
	}
}

// TestAggregateBlockLowering: HAVING and select-list expressions over
// aggregates and grouping expressions return the rows of their hand-expanded
// twins — sugar against its expansion (BETWEEN, IN, unary minus), every other
// shape against the same expression applied over a derived table that
// computes the aggregates — under the interpreter and on the pipeline alike.
func TestAggregateBlockLowering(t *testing.T) {
	cat, _, e := fixture(t, 2000)
	for _, c := range []struct{ name, sql, twin string }{
		{"not",
			"select flid, count(*) as c from trans group by flid having not (count(*) > 60)",
			"select flid, c from (select flid, count(*) as c from trans group by flid) t where not (c > 60)"},
		{"unary minus",
			"select flid, -sum(qty) as s from trans group by flid",
			"select flid, 0 - sum(qty) as s from trans group by flid"},
		{"year of max",
			"select flid, year(max(date)) as y from trans group by flid",
			"select flid, year(m) as y from (select flid, max(date) as m from trans group by flid) t"},
		{"is null",
			"select flid, count(*) as c from trans group by flid having max(disc) is not null and not (min(price) is null)",
			"select flid, c from (select flid, count(*) as c, max(disc) as d, min(price) as p from trans group by flid) t where d is not null and not (p is null)"},
		{"like",
			"select country, count(*) as c from loc group by country having min(city) like '%0_8'",
			"select country, c from (select country, count(*) as c, min(city) as m from loc group by country) t where m like '%0_8'"},
		{"between",
			"select flid, sum(qty) as s from trans group by flid having sum(qty) between 5 and 9",
			"select flid, sum(qty) as s from trans group by flid having sum(qty) >= 5 and sum(qty) <= 9"},
		{"not between",
			"select flid, sum(qty) as s from trans group by flid having sum(qty) not between 5 and 9",
			"select flid, sum(qty) as s from trans group by flid having not (sum(qty) >= 5 and sum(qty) <= 9)"},
		{"in",
			"select flid, count(*) as c from trans group by flid having count(*) in (2, 3, 6)",
			"select flid, count(*) as c from trans group by flid having count(*) = 2 or count(*) = 3 or count(*) = 6"},
		{"not in",
			"select flid, count(*) as c from trans group by flid having count(*) not in (2, 3, 6)",
			"select flid, count(*) as c from trans group by flid having not (count(*) = 2 or count(*) = 3 or count(*) = 6)"},
		{"case",
			"select flid, case when count(*) > 100 then 'many' when count(*) > 2 then 'some' else 'few' end as k from trans group by flid",
			"select flid, case when c > 100 then 'many' when c > 2 then 'some' else 'few' end as k from (select flid, count(*) as c from trans group by flid) t"},
		{"around a grouping expression",
			"select year(date) + 1 as y1, count(*) as c from trans group by year(date) having year(date) + 1 > 1990",
			"select y + 1 as y1, c from (select year(date) as y, count(*) as c from trans group by year(date)) t where y + 1 > 1990"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want *Result
			for _, sql := range []string{c.sql, c.twin} {
				g, err := qgm.BuildSQL(sql, cat)
				if err != nil {
					t.Fatalf("build %q: %v", sql, err)
				}
				for _, cfg := range []Config{{Interpret: true}, {Parallelism: 2}} {
					got, err := e.RunCtx(context.Background(), g, cfg)
					if err != nil {
						t.Fatalf("%q (interpret %v): %v", sql, cfg.Interpret, err)
					}
					if want == nil {
						want = got
						if len(want.Rows) == 0 {
							t.Fatalf("%q returns no rows: the case tests nothing", sql)
						}
					} else if d := EqualResults(want, got); d != "" {
						t.Fatalf("%q (interpret %v) differs from %q under the interpreter: %s", sql, cfg.Interpret, c.sql, d)
					}
				}
			}
		})
	}
}
