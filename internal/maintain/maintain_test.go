package maintain

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

type fixture struct {
	cat    *catalog.Catalog
	store  *storage.Store
	engine *exec.Engine
	rw     *core.Rewriter
	m      *Maintainer
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: n, Seed: 13})
	return &fixture{
		cat:    cat,
		store:  store,
		engine: exec.NewEngine(store),
		rw:     core.NewRewriter(cat, core.Options{}),
		m:      New(store),
	}
}

func (f *fixture) compile(t testing.TB, name, sql string) *core.CompiledAST {
	t.Helper()
	ca, err := f.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Run(ca.Graph)
	if err != nil {
		t.Fatal(err)
	}
	f.store.PutRows(ca.Table, res.Rows)
	return ca
}

// randTransRows builds RI-consistent trans rows.
func randTransRows(f *fixture, rng *rand.Rand, n int) [][]sqltypes.Value {
	nextTid := int64(f.store.MustTable("trans").Cardinality() + 1000000)
	accts := f.store.MustTable("acct").Cardinality()
	locs := f.store.MustTable("loc").Cardinality()
	pgs := f.store.MustTable("pgroup").Cardinality()
	var out [][]sqltypes.Value
	for i := 0; i < n; i++ {
		out = append(out, []sqltypes.Value{
			sqltypes.NewInt(nextTid + int64(i)),
			sqltypes.NewInt(int64(1 + rng.Intn(accts))),
			sqltypes.NewInt(int64(1 + rng.Intn(pgs))),
			sqltypes.NewInt(int64(1 + rng.Intn(locs))),
			sqltypes.NewDate(1990+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28)),
			sqltypes.NewInt(int64(1 + rng.Intn(5))),
			sqltypes.NewFloat(float64(1+rng.Intn(5000)) / 10),
			sqltypes.NewFloat(float64(rng.Intn(30)) / 100),
		})
	}
	return out
}

// checkAgainstRecompute compares the maintained table with a fresh
// recomputation of the definition.
func checkAgainstRecompute(t *testing.T, f *fixture, ca *core.CompiledAST) {
	t.Helper()
	want, err := f.engine.Run(ca.Graph)
	if err != nil {
		t.Fatal(err)
	}
	got := f.store.MustTable(ca.Def.Name)
	gotRes := &exec.Result{Cols: want.Cols, Rows: got.Snapshot()}
	if diff := exec.EqualResults(want, gotRes); diff != "" {
		t.Fatalf("maintained %s diverged from recomputation: %s", ca.Def.Name, diff)
	}
}

func TestAnalyzeClassification(t *testing.T) {
	f := newFixture(t, 500)
	cases := []struct {
		sql  string
		want Strategy
	}{
		{`select flid, year(date) as y, count(*) as c, sum(qty) as s, min(price) as mn, max(price) as mx
		  from trans group by flid, year(date)`, Incremental},
		{`select flid, year(date) as y, count(*) as c
		  from trans, loc where flid = lid and country = 'USA'
		  group by flid, year(date)`, Incremental},
		{`select flid, count(distinct faid) as c from trans group by flid`, FullRecompute},
		{`select flid, count(*) as c from trans group by flid having count(*) > 2`, FullRecompute},
		{`select tid, qty from trans`, FullRecompute},
		{`select flid, count(*) * 2 as c2 from trans group by flid`, FullRecompute},
		{`select y, count(*) as c from (select year(date) as y, faid from trans) d group by y`, FullRecompute},
		{`select flid, year(date) as y, count(*) as c from trans group by rollup(flid, year(date))`, Incremental},
		{`select flid, avg(qty) as a from trans group by flid`, FullRecompute},
	}
	for i, c := range cases {
		ca := f.compile(t, fmt.Sprintf("ma%d", i), c.sql)
		p := f.m.Analyze(ca)
		if p.Strategy != c.want {
			t.Errorf("case %d (%s): strategy %v (reason %q), want %v", i, c.sql, p.Strategy, p.Reason, c.want)
		}
	}
}

// TestAnalyzeRefusals runs one definition per refusal Analyze can make of a
// graph qgm.Build produced, and per delete-path decision, and asserts the
// strategy, the reason and the delete routing's reason. The star schema has no
// nullable column, so the nullable rows read a table of their own.
func TestAnalyzeRefusals(t *testing.T) {
	f := newFixture(t, 200)
	f.cat.MustAddTable(&catalog.Table{Name: "nulls", Columns: []catalog.Column{
		{Name: "g", Type: sqltypes.KindInt, Nullable: true},
		{Name: "x", Type: sqltypes.KindInt, Nullable: true},
	}})
	meta, _ := f.cat.Table("nulls")
	f.store.PutRows(meta, [][]sqltypes.Value{{sqltypes.Null, sqltypes.NewInt(1)}, {sqltypes.NewInt(2), sqltypes.Null}})
	const (
		scalar   = "scalar subquery in definition"
		nested   = "nested block in definition"
		noTrack  = "no COUNT(*) tracker column to retire emptied groups"
		selfJoin = "table referenced more than once in the definition: single-table delta is unsound for self-joins"
	)
	for i, c := range []struct {
		name, sql         string
		strategy          Strategy
		reason, delReason string
		scoped            []int
	}{
		{"scalar subquery at the root", `select flid, count(*) as c, (select count(*) from loc) as n from trans group by flid`,
			FullRecompute, scalar, scalar, nil},
		{"nested block at the root", `select d.flid, d.c from (select flid, count(*) as c from trans group by flid) d`,
			FullRecompute, nested, nested, nil},
		{"no aggregation", `select tid, qty from trans`,
			FullRecompute, "no aggregation (append-only refresh would need dedup tracking)", "no aggregation (append-only refresh would need dedup tracking)", nil},
		{"having", `select flid, count(*) as c from trans group by flid having count(*) > 2`,
			FullRecompute, "HAVING filters groups; deltas may resurrect filtered groups", "HAVING filters groups; deltas may resurrect filtered groups", nil},
		{"scalar subquery under the GROUP BY", `select flid, count(*) as c from trans where qty > (select min(lid) from loc) group by flid`,
			FullRecompute, scalar, scalar, nil},
		{"nested block under the GROUP BY", `select y, count(*) as c from (select year(date) as y from trans) d group by y`,
			FullRecompute, nested, nested, nil},
		{"distinct over a grouping block", `select distinct flid, count(*) as c from trans group by flid`,
			FullRecompute, nested, nested, nil},
		{"supergroup over a nullable grouping expression", `select g, count(*) as c from nulls group by rollup(g)`,
			FullRecompute, "supergroup over a nullable grouping expression: NULL padding is ambiguous",
			"supergroup over a nullable grouping expression: NULL padding is ambiguous", nil},
		{"computed output", `select flid, count(*) * 2 as c2 from trans group by flid`,
			FullRecompute, `output column "c2" is computed, not a plain reference`, `output column "c2" is computed, not a plain reference`, nil},
		{"distinct aggregate", `select flid, count(distinct faid) as c from trans group by flid`,
			FullRecompute, "DISTINCT aggregate cannot be merged incrementally", "DISTINCT aggregate cannot be merged incrementally", nil},
		{"self-join", `select a.flid, count(*) as c from trans a, trans b where a.tid = b.tid group by a.flid`,
			Incremental, "", selfJoin, nil},
		{"no tracker", `select flid, sum(qty) as s from trans group by flid`,
			Incremental, "", noTrack, nil},
		{"count of a nullable argument is no tracker", `select g, count(x) as c from nulls group by g`,
			Incremental, "", noTrack, nil},
		{"distinct has no tracker", `select distinct flid, faid from trans`,
			Incremental, "", noTrack, nil},
		{"supergroup with a MIN", `select flid, faid, count(*) as c, min(qty) as m from trans group by rollup(flid, faid)`,
			Incremental, "", "supergroup with MIN/MAX (or nullable SUM): recompute cannot be scoped to cuboid groups", []int{3}},
		{"a MAX is scoped", `select flid, count(*) as c, max(qty) as m from trans group by flid`,
			Incremental, "", "", []int{2}},
		{"a nullable SUM is scoped", `select g, count(*) as c, sum(x) as s from nulls group by g`,
			Incremental, "", "", []int{2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := f.m.Analyze(f.compile(t, fmt.Sprintf("refusal%d", i), c.sql))
			table := "trans"
			if p.ReadsTable("nulls") {
				table = "nulls"
			}
			_, delReason := p.DeleteRouting(table)
			if p.Strategy != c.strategy || p.Reason != c.reason || delReason != c.delReason || !slices.Equal(p.scopedCols, c.scoped) {
				t.Fatalf("strategy %v, reason %q, delete reason %q, scoped %v; want %v, %q, %q, %v",
					p.Strategy, p.Reason, delReason, p.scopedCols, c.strategy, c.reason, c.delReason, c.scoped)
			}
		})
	}
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	f := newFixture(t, 2000)
	ca := f.compile(t, "inc1", `
		select flid, year(date) as y, count(*) as c, sum(qty) as s,
		       min(price) as mn, max(price) as mx, count(qty) as cq
		from trans group by flid, year(date)`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("not incremental: %s", plan.Reason)
	}
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 5; batch++ {
		rows := randTransRows(f, rng, 50+rng.Intn(100))
		stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 || stats[0].Strategy != Incremental {
			t.Fatalf("stats: %+v", stats)
		}
		checkAgainstRecompute(t, f, ca)
	}
}

func TestIncrementalWithJoin(t *testing.T) {
	f := newFixture(t, 2000)
	ca := f.compile(t, "incjoin", `
		select state, year(date) as y, count(*) as c, sum(qty * price) as rev
		from trans, loc where flid = lid
		group by state, year(date)`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("join AST should be incremental: %s", plan.Reason)
	}
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 3; batch++ {
		rows := randTransRows(f, rng, 80)
		if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, f, ca)
	}
}

// TestIncrementalSupergroup: grouping-sets ASTs merge per output row — the
// NULL-padded key tuples of each cuboid align between delta and table.
func TestIncrementalSupergroup(t *testing.T) {
	f := newFixture(t, 2000)
	ca := f.compile(t, "incgs", `
		select flid, year(date) as y, month(date) as m, count(*) as c, sum(qty) as s
		from trans
		group by grouping sets((flid, y), (flid, y, m), (y), ())`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("supergroup AST should be incremental: %s", plan.Reason)
	}
	rng := rand.New(rand.NewSource(77))
	for batch := 0; batch < 4; batch++ {
		rows := randTransRows(f, rng, 60+rng.Intn(60))
		if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, f, ca)
	}
}

func TestFullFallbackStaysCorrect(t *testing.T) {
	f := newFixture(t, 1000)
	ca := f.compile(t, "fullast", `
		select flid, count(distinct faid) as buyers from trans group by flid`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != FullRecompute {
		t.Fatal("expected full recompute")
	}
	rng := rand.New(rand.NewSource(4))
	rows := randTransRows(f, rng, 60)
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Strategy != FullRecompute {
		t.Fatalf("stats: %+v", stats)
	}
	checkAgainstRecompute(t, f, ca)
}

func TestDimensionInsertIsCheap(t *testing.T) {
	f := newFixture(t, 1000)
	ca := f.compile(t, "dimast", `
		select state, count(*) as c from trans, loc where flid = lid group by state`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("expected incremental: %s", plan.Reason)
	}
	// New locations have no transactions yet (RI): the delta is empty.
	n := f.store.MustTable("loc").Cardinality()
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "loc", [][]sqltypes.Value{{
		sqltypes.NewInt(int64(n + 1)), sqltypes.NewString("NewCity"),
		sqltypes.NewString("ZZ"), sqltypes.NewString("USA"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].DeltaRows != 0 || stats[0].Merged != 0 || stats[0].Added != 0 {
		t.Fatalf("dimension insert should be a no-op delta: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)
}

func TestASTNotReadingTableSkipped(t *testing.T) {
	f := newFixture(t, 500)
	ca := f.compile(t, "custonly", `select age, count(*) as c from cust group by age`)
	plan := f.m.Analyze(ca)
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans",
		randTransRows(f, rand.New(rand.NewSource(5)), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 {
		t.Fatalf("AST over cust should be skipped for trans inserts: %+v", stats)
	}
}

// TestMaintainedASTStillAnswersQueries: end-to-end — after incremental
// refreshes, rewrites against the AST remain result-identical.
func TestMaintainedASTStillAnswersQueries(t *testing.T) {
	f := newFixture(t, 1500)
	ca := f.compile(t, "servem", `
		select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)`)
	plan := f.m.Analyze(ca)
	rng := rand.New(rand.NewSource(6))
	if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", randTransRows(f, rng, 120)); err != nil {
		t.Fatal(err)
	}

	sql := "select flid, count(*) as cnt from trans where year(date) > 1990 group by flid"
	orig, err := buildAndRun(f, sql)
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(f, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res := f.rw.Rewrite(g, ca); res == nil {
		t.Fatal("no rewrite")
	}
	newRes, err := f.engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if diff := exec.EqualResults(orig, newRes); diff != "" {
		t.Fatalf("rewrite against maintained AST wrong: %s", diff)
	}
}

func buildGraph(f *fixture, sql string) (*qgm.Graph, error) {
	return qgm.BuildSQL(sql, f.cat)
}

func buildAndRun(f *fixture, sql string) (*exec.Result, error) {
	g, err := buildGraph(f, sql)
	if err != nil {
		return nil, err
	}
	return f.engine.Run(g)
}

// TestStatsString: a full recompute reports the summary table's rows, never
// delta rows, and an incremental refresh its delta groups.
func TestStatsString(t *testing.T) {
	for _, c := range []struct {
		st   Stats
		want string
	}{
		{Stats{AST: "a", Strategy: FullRecompute, DeltaRows: 220}, "refreshed summary table a (full recompute, 220 rows)"},
		{Stats{AST: "a", DeltaRows: 4}, "refreshed summary table a (incremental, 4 delta groups)"},
		{Stats{AST: "a", DeltaRows: 3, Retired: 1, Scoped: 2},
			"refreshed summary table a (incremental, 3 delta groups, 1 group(s) retired, 2 scope-recomputed)"},
		{Stats{AST: "a", Err: errors.New("boom")}, "degraded: summary table a refresh failed (now stale): boom"},
	} {
		if got := c.st.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}
