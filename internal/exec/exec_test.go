package exec

import (
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
}
