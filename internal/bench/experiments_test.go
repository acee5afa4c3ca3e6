package bench

import (
	"fmt"
	"testing"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestAllExperimentsSmoke runs each experiment of DESIGN.md §4, E01–E17, end
// to end on the generated star schema at a small scale, and checks the shape
// EXPERIMENTS.md reports for it: a rewrite happens or is refused as the paper
// says, and a rewritten answer equals the base tables' answer. The finer
// checks live in the tests §4 names; this one keeps every experiment running
// on the generator's data through the engine. A01–A03 are legs of
// internal/core's figure tests, and the timings are the root bench_test.go's.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	const scale = 3000
	figure := func(queries ...string) func(*testing.T) {
		return func(t *testing.T) {
			env := NewEnvDefault(scale)
			for _, q := range queries {
				checkPairing(t, env, q)
			}
		}
	}
	for _, e := range []struct {
		id  string
		run func(*testing.T)
	}{
		{"E01", func(t *testing.T) {
			env := NewEnvDefault(scale)
			checkPairing(t, env, "q1")
			checkSmaller(t, env, "ast1", 5)
		}},
		{"E02", figure("q2")},
		{"E03", figure("q4")},
		{"E04", figure("q6")},
		{"E05", figure("q7")},
		{"E06", figure("q8")},
		{"E07", figure("q10")},
		{"E08", smokeFigure12},
		{"E09", figure("q11_1", "q11_2", "q11_3")},
		{"E10", figure("q12_1", "q12_2")},
		{"E11", figure("qbad")},
		{"E12", func(t *testing.T) {
			for _, n := range []int{scale / 10, scale / 2, scale} {
				env := NewEnvDefault(n)
				for _, q := range []string{"q1", "q7", "q11_1"} {
					checkPairing(t, env, q)
				}
				checkSmaller(t, env, "ast1", 1)
			}
		}},
		{"E13", func(t *testing.T) { smokeMatchPools(t, scale) }},
		{"E14", func(t *testing.T) { smokeDSSuite(t, scale) }},
		{"E15", func(t *testing.T) { smokeAdvisorRoundTrip(t, scale) }},
		{"E16", func(t *testing.T) { smokeRefresh(t, scale) }},
		{"E17", func(t *testing.T) { smokeNegativeControl(t, scale) }},
	} {
		t.Run(e.id, e.run)
	}
}

// checkPairing plans query q of the paper suite against the AST its pairing
// names (registering it on first use): the rewrite must happen exactly when
// the paper says, and then answer as the base tables do.
func checkPairing(t *testing.T, env *Env, q string) {
	t.Helper()
	for _, p := range pairings {
		if p.Query != q {
			continue
		}
		ast, ok := env.ASTs[p.AST]
		if !ok {
			ast = mustRegister(t, env, p.AST, ASTDefs[p.AST])
		}
		g := mustBuild(t, env, Queries[q])
		rewritten := env.RW.Rewrite(g, ast) != nil
		if rewritten != p.WantMatch {
			t.Fatalf("%s (%s) against %s: rewritten=%v, the paper says %v", q, p.Figure, p.AST, rewritten, p.WantMatch)
		}
		if rewritten {
			checkAnswer(t, env, q, Queries[q], g)
		}
		return
	}
	t.Fatalf("no pairing for %s", q)
}

// checkSmaller: the summary table has fewer than 1/factor of trans's rows.
func checkSmaller(t *testing.T, env *Env, ast string, factor int) {
	t.Helper()
	if n, m := env.Store.TableRows("trans"), env.Store.TableRows(ast); m*factor >= n {
		t.Fatalf("%s has %d rows for %d trans rows, not %d× smaller", ast, m, n, factor)
	}
}

// checkAnswer runs the planned graph g and sql over the base tables, and
// fails unless both answers are equal.
func checkAnswer(t *testing.T, env *Env, name, sql string, g *qgm.Graph) {
	t.Helper()
	want := mustRun(t, env, mustBuild(t, env, sql))
	if diff := exec.EqualResults(want, mustRun(t, env, g)); diff != "" {
		t.Fatalf("%s: rewritten answer differs: %s\n%s", name, diff, g.SQL())
	}
}

func mustRegister(t *testing.T, env *Env, name, sql string) *core.CompiledAST {
	t.Helper()
	ca, err := env.RegisterAST(name, sql)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func mustBuild(t *testing.T, env *Env, sql string) *qgm.Graph {
	t.Helper()
	g, err := qgm.BuildSQL(sql, env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustRun(t *testing.T, env *Env, g *qgm.Graph) *exec.Result {
	t.Helper()
	res, err := env.Engine.Run(g)
	if err != nil {
		t.Fatalf("%v\n%s", err, g.SQL())
	}
	return res
}

// smokeFigure12 is E08: the paper's 8-row sample under its grouping sets
// gives Figure 12's 11 rows.
func smokeFigure12(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "trans", Columns: []catalog.Column{
		{Name: "flid", Type: sqltypes.KindInt},
		{Name: "year", Type: sqltypes.KindInt},
		{Name: "faid", Type: sqltypes.KindInt},
	}})
	store := storage.NewStore()
	meta, _ := cat.Table("trans")
	td := store.Create(meta)
	for _, d := range [][3]int64{
		{1, 1990, 100}, {1, 1991, 100}, {1, 1991, 200}, {1, 1991, 300},
		{1, 1992, 100}, {1, 1992, 400}, {2, 1991, 400}, {2, 1991, 400},
	} {
		td.MustInsert(sqltypes.NewInt(d[0]), sqltypes.NewInt(d[1]), sqltypes.NewInt(d[2]))
	}
	g, err := qgm.BuildSQL(`select flid, year, faid, count(*) as cnt
		from trans group by grouping sets((flid, year), (year, faid))`, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.NewEngine(store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("Figure 12 has 11 rows, got %d", len(res.Rows))
	}
}

// smokeMatchPools is E13: with every paper AST registered, each pairing
// matches as the paper says, and RewriteBest serves q1 from pools of 1, 4 and
// 8 candidates with the base tables' answer.
func smokeMatchPools(t *testing.T, scale int) {
	env := NewEnvDefault(scale)
	for name, sql := range ASTDefs {
		mustRegister(t, env, name, sql)
	}
	for _, p := range pairings {
		checkPairing(t, env, p.Query)
	}
	for _, pool := range [][]string{
		{"ast1"},
		{"ast7", "ast6", "ast8", "ast1"},
		{"ast7", "ast6", "ast8", "ast10", "ast11", "ast2", "astbad", "ast1"},
	} {
		asts := make([]*core.CompiledAST, len(pool))
		for i, n := range pool {
			asts[i] = env.ASTs[n]
		}
		g := mustBuild(t, env, Queries["q1"])
		if env.RW.RewriteBest(g, asts) == nil {
			t.Fatalf("q1 not served from %v", pool)
		}
		checkAnswer(t, env, fmt.Sprintf("q1 from %d candidates", len(pool)), Queries["q1"], g)
	}
}

// smokeDSSuite is E14: the decision-support suite routed by cost through the
// deployed summary tables; every routed query answers as the base tables do.
func smokeDSSuite(t *testing.T, scale int) {
	env := NewEnvDefault(scale)
	var asts []*core.CompiledAST
	for _, d := range workload.DSASTs {
		asts = append(asts, mustRegister(t, env, d.Name, d.SQL))
	}
	served := 0
	for _, q := range workload.DSQueries {
		g := mustBuild(t, env, q.SQL)
		if env.RW.RewriteBestCost(g, asts, env.Store) == nil {
			continue
		}
		checkAnswer(t, env, q.Name, q.SQL, g)
		served++
	}
	if served == 0 {
		t.Fatalf("no query of the %d-query suite served by a summary table", len(workload.DSQueries))
	}
}

// repeatedTrans is an insert batch of n rows: the loaded trans rows repeated
// under keys from firstTid on, so every foreign key holds.
func repeatedTrans(t *testing.T, env *Env, firstTid int64, n int) [][]sqltypes.Value {
	t.Helper()
	base, err := env.Store.Scan("trans")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = append([]sqltypes.Value{sqltypes.NewInt(firstTid + int64(i))}, base[i%len(base)][1:]...)
	}
	return rows
}

// smokeAdvisorRoundTrip is E15: the greedy advisor's proposals are
// materialised, kept fresh through three insert batches, and still serve
// follow-up queries with the base tables' answer.
func smokeAdvisorRoundTrip(t *testing.T, scale int) {
	env := NewEnvDefault(scale)
	props, _, err := advisor.SelectASTs(advisor.Config{
		Fact: "trans",
		Dims: []advisor.Dimension{
			{Name: "flid", Expr: "flid"},
			{Name: "faid", Expr: "faid"},
			{Name: "fpgid", Expr: "fpgid"},
			{Name: "year", Expr: "year(date)"},
		},
		Aggs: []string{"count(*) as cnt", "sum(qty) as sum_qty"},
		K:    3,
	}, env.Cat, env.Store)
	if err != nil || len(props) == 0 {
		t.Fatalf("advisor: %v, %d proposals", err, len(props))
	}
	m := maintain.New(env.Store)
	var plans []*maintain.Plan
	var asts []*core.CompiledAST
	for _, p := range props {
		ca := mustRegister(t, env, p.Def.Name, p.Def.SQL)
		asts = append(asts, ca)
		plans = append(plans, m.Analyze(ca))
	}
	for batch := 0; batch < 3; batch++ {
		if _, err := m.ApplyInsert(plans, "trans", repeatedTrans(t, env, int64(10_000_000+batch*500), 500)); err != nil {
			t.Fatalf("batch %d: %v", batch+1, err)
		}
	}
	served := 0
	for _, q := range []string{
		"select flid, year(date) as year, count(*) as cnt from trans group by flid, year(date)",
		"select fpgid, sum(qty) as s from trans group by fpgid",
		"select year(date) as year, count(*) as cnt from trans group by year(date)",
	} {
		g := mustBuild(t, env, q)
		if env.RW.RewriteBest(g, asts) == nil {
			continue
		}
		checkAnswer(t, env, q, q, g)
		served++
	}
	if served == 0 {
		t.Fatal("no follow-up query served by the maintained proposals")
	}
}

// smokeRefresh is E16: an insert batch merged into the summary table by
// ApplyInsert leaves it as appending the batch and recomputing it does.
func smokeRefresh(t *testing.T, scale int) {
	const def = `select flid, year(date) as year, month(date) as month,
		count(*) as cnt, sum(qty) as sq, sum(qty * price) as rev, min(price) as lo, max(price) as hi
		from trans group by flid, year(date), month(date)`
	env := NewEnvDefault(scale)
	m := maintain.New(env.Store)
	plan := m.Analyze(mustRegister(t, env, "e16", def))
	if plan.Strategy != maintain.Incremental {
		t.Fatalf("e16 is not maintained incrementally: %s", plan.Reason)
	}
	trans := env.Store.MustTable("trans")
	base, summary := trans.Snapshot(), env.Store.MustTable("e16").Snapshot()
	table := func() *exec.Result {
		return &exec.Result{Rows: env.Store.MustTable("e16").Snapshot()}
	}
	for _, batch := range []int{100, 1000} {
		rows := repeatedTrans(t, env, 20_000_000, batch)
		env.Store.Put(trans.Meta, base)
		env.Store.Put(plan.AST.Table, summary)
		if st, err := m.ApplyInsert([]*maintain.Plan{plan}, "trans", rows); err != nil || st[0].Strategy != maintain.Incremental {
			t.Fatalf("batch %d: incremental refresh: %v, %+v", batch, err, st)
		}
		incremental := table()
		env.Store.Put(trans.Meta, base)
		env.Store.Put(plan.AST.Table, summary)
		if err := env.Store.MustTable("trans").Rewrite(nil, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RefreshFull(plan); err != nil {
			t.Fatal(err)
		}
		if diff := exec.EqualResults(table(), incremental); diff != "" {
			t.Fatalf("batch %d: incremental refresh differs from recomputing: %s", batch, diff)
		}
	}
}

// smokeNegativeControl is E17: one corrupted count in a materialised summary
// table makes the answer check fail, so the checks above are live.
func smokeNegativeControl(t *testing.T, scale int) {
	env := NewEnvDefault(scale)
	ast := mustRegister(t, env, "e17ast", `select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)`)
	const sql = `select flid, count(*) as cnt from trans group by flid`
	want := mustRun(t, env, mustBuild(t, env, sql))
	g := mustBuild(t, env, sql)
	if env.RW.Rewrite(g, ast) == nil {
		t.Fatal("no rewrite against e17ast")
	}
	if diff := exec.EqualResults(want, mustRun(t, env, g)); diff != "" {
		t.Fatalf("clean summary table: %s", diff)
	}
	td := env.Store.MustTable("e17ast")
	dirty := td.Snapshot()
	dirty[0] = append([]sqltypes.Value(nil), dirty[0]...)
	cnt, err := sqltypes.Add(dirty[0][2], sqltypes.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	dirty[0][2] = cnt
	env.Store.Put(td.Meta, dirty)
	if exec.EqualResults(want, mustRun(t, env, g)) == "" {
		t.Fatal("the answer check did not detect a corrupted count")
	}
}
