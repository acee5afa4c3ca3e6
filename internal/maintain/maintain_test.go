package maintain

import (
	"fmt"
	"math/rand"
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
	f.store.Put(ca.Table, res.Rows)
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
