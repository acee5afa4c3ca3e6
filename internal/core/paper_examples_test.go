package core_test

// Integration tests reproducing every worked example of the paper: each test
// registers the figure's AST, rewrites the figure's query, checks the rewrite
// happened (or, for the negative examples, that it did not), and verifies
// that the original and rewritten queries produce identical results on
// generated data.

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// env bundles a catalog, store and engine with the star schema loaded.
type env struct {
	cat    *catalog.Catalog
	store  *storage.Store
	engine *exec.Engine
	rw     *core.Rewriter
}

func newEnv(t testing.TB, numTrans int) *env {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: numTrans, Seed: 7})
	return &env{
		cat:    cat,
		store:  store,
		engine: exec.NewEngine(store),
		rw:     core.NewRewriter(cat, core.Options{}),
	}
}

// registerAST compiles an AST, materializes it into the store, and returns it.
func (e *env) registerAST(t testing.TB, name, sql string) *core.CompiledAST {
	t.Helper()
	ca, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		t.Fatalf("compile AST %s: %v", name, err)
	}
	res, err := e.engine.Run(ca.Graph)
	if err != nil {
		t.Fatalf("materialize AST %s: %v", name, err)
	}
	e.store.Put(ca.Table, res.Rows)
	return ca
}

// mustRewrite asserts the query rewrites against the AST and that original
// and rewritten results agree. It returns the rewritten SQL.
func (e *env) mustRewrite(t *testing.T, querySQL string, ast *core.CompiledAST) string {
	t.Helper()
	orig, err := qgm.BuildSQL(querySQL, e.cat)
	if err != nil {
		t.Fatalf("build query: %v", err)
	}
	origRes, err := e.engine.Run(orig)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}

	q2, err := qgm.BuildSQL(querySQL, e.cat)
	if err != nil {
		t.Fatalf("rebuild query: %v", err)
	}
	res := e.rw.Rewrite(q2, ast)
	if res == nil {
		t.Fatalf("expected a rewrite against %s for:\n  %s", ast.Def.Name, querySQL)
	}
	if !usesTable(q2, ast.Def.Name) {
		t.Fatalf("rewritten graph does not read %s:\n%s", ast.Def.Name, q2.Dump())
	}
	if err := qgmcheck.Structural(q2); err != nil {
		t.Fatalf("rewritten graph invalid: %v\n%s", err, q2.Dump())
	}
	newRes, err := e.engine.Run(q2)
	if err != nil {
		t.Fatalf("run rewritten (%s): %v\nSQL: %s\nGraph:\n%s", ast.Def.Name, err, q2.SQL(), q2.Dump())
	}
	if diff := exec.EqualResults(origRes, newRes); diff != "" {
		t.Fatalf("rewritten result differs: %s\noriginal SQL: %s\nrewritten SQL: %s\nrewritten graph:\n%s",
			diff, querySQL, q2.SQL(), q2.Dump())
	}
	return q2.SQL()
}

// mustNotRewrite asserts no rewrite happens.
func (e *env) mustNotRewrite(t *testing.T, querySQL string, ast *core.CompiledAST) {
	t.Helper()
	q, err := qgm.BuildSQL(querySQL, e.cat)
	if err != nil {
		t.Fatalf("build query: %v", err)
	}
	if res := e.rw.Rewrite(q, ast); res != nil {
		t.Fatalf("unexpected rewrite against %s:\n  %s\n→ %s", ast.Def.Name, querySQL, q.SQL())
	}
}

func usesTable(g *qgm.Graph, name string) bool {
	for _, b := range g.Boxes() {
		if b.Kind == qgm.BaseTableBox && b.Table.Name == name {
			return true
		}
	}
	return false
}

// withOptions is the same environment planned by a rewriter with other
// options: the ablation legs rewrite with the paper's choice switched off.
func (e *env) withOptions(opts core.Options) *env {
	c := *e
	c.rw = core.NewRewriter(e.cat, opts)
	return &c
}

// TestFigure2_Q1 is the paper's introductory example: Q1 regroups AST1's
// (faid, flid, year) counts by (faid, state, year) after rejoining Loc.
func TestFigure2_Q1(t *testing.T) {
	e := newEnv(t, 4000)
	ast1 := e.registerAST(t, "ast1", bench.ASTDefs["ast1"])
	sql := e.mustRewrite(t, bench.Queries["q1"], ast1)
	if !strings.Contains(strings.ToLower(sql), "sum(") {
		t.Errorf("expected re-summed counts in NewQ1, got: %s", sql)
	}
}

// TestFigure5_Q2 exercises §4.1.1: rejoin child (PGroup), lossless extra join
// (Loc via the flid→lid RI constraint), column equivalence (aid ↔ faid), and
// minimal-QCL derivation of qty*price*(1-disc) from the value column.
func TestFigure5_Q2(t *testing.T) {
	e := newEnv(t, 2000)
	ast2 := e.registerAST(t, "ast2", bench.ASTDefs["ast2"])
	sql := e.mustRewrite(t, bench.Queries["q2"], ast2)
	if !strings.Contains(sql, "(ast2.value * (1 - ast2.disc)) AS amt") {
		t.Errorf("expected amt derived via the value column, got: %s", sql)
	}
	if !strings.Contains(strings.ToLower(sql), "pgroup") {
		t.Errorf("expected PGroup rejoin, got: %s", sql)
	}

	// A01: deriving from the leaves instead recomputes value from qty and price.
	t.Run("A01_leaf_first_derivation", func(t *testing.T) {
		sql := e.withOptions(core.Options{LeafFirstDerivation: true}).mustRewrite(t, bench.Queries["q2"], ast2)
		if !strings.Contains(sql, "((ast2.qty * ast2.price) * (1 - ast2.disc)) AS amt") {
			t.Errorf("leaf-first derivation should rebuild amt from qty and price, got: %s", sql)
		}
	})
}

// TestFigure6_Q4 exercises §4.1.2: exact child match, regrouping monthly sums
// into yearly sums via derivation rule (c).
func TestFigure6_Q4(t *testing.T) {
	e := newEnv(t, 2000)
	e.mustRewrite(t, bench.Queries["q4"], e.registerAST(t, "ast6", bench.ASTDefs["ast6"]))
}

// TestFigure7_Q6 exercises §4.2.1 example 1: SELECT child compensation with
// predicate pull-up (month >= 6) and a grouping expression (year % 100)
// derived from the subsumer's grouping columns.
func TestFigure7_Q6(t *testing.T) {
	e := newEnv(t, 2000)
	e.mustRewrite(t, bench.Queries["q6"], e.registerAST(t, "ast6", bench.ASTDefs["ast6"]))
}

// TestFigure8_Q7 exercises §4.2.1 example 2: a rejoin (Loc) inside the child
// compensation. Because the rejoin is 1:N on Loc's key, no regrouping box is
// needed; the counts read off the AST directly.
func TestFigure8_Q7(t *testing.T) {
	e := newEnv(t, 2000)
	ast7 := e.registerAST(t, "ast7", bench.ASTDefs["ast7"])
	sql := strings.ToLower(e.mustRewrite(t, bench.Queries["q7"], ast7))
	if strings.Contains(sql, "sum(") || strings.Contains(sql, "group by") {
		t.Errorf("1:N rejoin should avoid regrouping, got: %s", sql)
	}

	// A02: without the 1:N elimination the rewrite regroups.
	t.Run("A02_always_regroup", func(t *testing.T) {
		sql := e.withOptions(core.Options{AlwaysRegroup: true}).mustRewrite(t, bench.Queries["q7"], ast7)
		if !strings.Contains(strings.ToLower(sql), "group by") {
			t.Errorf("always-regroup should add a GROUP BY, got: %s", sql)
		}
	})
}

// TestFigure10_Q8 exercises §4.2.2: histogram query over a histogram AST —
// the child compensation itself contains a GROUP BY, triggering the recursive
// match and the copy construction of Figure 9.
func TestFigure10_Q8(t *testing.T) {
	e := newEnv(t, 3000)
	e.mustRewrite(t, bench.Queries["q8"], e.registerAST(t, "ast8", bench.ASTDefs["ast8"]))
}

// TestFigure11_Q10 exercises §4.2.4 and the §6 derivation walkthrough: a
// SELECT subsumee with grouping child compensation plus a scalar subquery
// block that must be matched and threaded through the pulled-up stack.
func TestFigure11_Q10(t *testing.T) {
	e := newEnv(t, 2000)
	// Not bench.Queries["q10"] (TestFigure11_Q10_Ratio's): the scalar
	// subquery is an output column of its own here, not a divisor.
	e.mustRewrite(t, `
		select flid, count(*) as cnt, (select count(*) from trans) as totcnt
		from trans, loc
		where flid = lid and country = 'USA'
		group by flid
		having count(*) > 2`, e.registerAST(t, "ast10", bench.ASTDefs["ast10"]))
}

// TestFigure11_Q10_Ratio is the paper's exact Q10: the output column is the
// ratio cnt/totcnt whose derivation is traced in §6.
func TestFigure11_Q10_Ratio(t *testing.T) {
	e := newEnv(t, 2000)
	e.mustRewrite(t, bench.Queries["q10"], e.registerAST(t, "ast10", bench.ASTDefs["ast10"]))
}

// TestFigure13_Q11 exercises §5.1: simple GROUP BY queries against a
// GROUPING SETS AST — an exact-cuboid slice (Q11.1), a sliced cuboid with
// regrouping (Q11.2), and the COUNT(DISTINCT) no-match (Q11.3).
func TestFigure13_Q11(t *testing.T) {
	e := newEnv(t, 3000)
	ast11 := e.registerAST(t, "ast11", bench.ASTDefs["ast11"])

	t.Run("Q11.1_exact_cuboid", func(t *testing.T) {
		sql := e.mustRewrite(t, bench.Queries["q11_1"], ast11)
		low := strings.ToLower(sql)
		if !strings.Contains(low, "is null") || !strings.Contains(low, "is not null") {
			t.Errorf("expected slicing predicates, got: %s", sql)
		}
		if strings.Contains(low, "group by") {
			t.Errorf("Q11.1 should not regroup, got: %s", sql)
		}
	})

	t.Run("Q11.2_regrouped_cuboid", func(t *testing.T) {
		sql := e.mustRewrite(t, bench.Queries["q11_2"], ast11)
		low := strings.ToLower(sql)
		if !strings.Contains(low, "sum(") || !strings.Contains(low, "group by") {
			t.Errorf("Q11.2 should regroup with summed counts, got: %s", sql)
		}
	})

	t.Run("Q11.3_no_match", func(t *testing.T) {
		e.mustNotRewrite(t, bench.Queries["q11_3"], ast11)
	})

	// A03: taking the first cuboid that answers Q11.1 instead of the
	// smallest reads a finer one and regroups it.
	t.Run("A03_first_cuboid", func(t *testing.T) {
		sql := e.withOptions(core.Options{FirstCuboid: true}).mustRewrite(t, bench.Queries["q11_1"], ast11)
		if !strings.Contains(strings.ToLower(sql), "group by") {
			t.Errorf("first-cuboid selection should regroup Q11.1, got: %s", sql)
		}
	})
}

// TestFigure14_Q12 exercises §5.2: cube queries against a cube AST — all
// cuboids matched without regrouping (Q12.1, disjunctive slicing) and the
// union-grouping-set fallback with multidimensional regrouping (Q12.2).
func TestFigure14_Q12(t *testing.T) {
	e := newEnv(t, 3000)
	ast11 := e.registerAST(t, "ast11", bench.ASTDefs["ast11"])

	t.Run("Q12.1_sliced_cuboids", func(t *testing.T) {
		sql := e.mustRewrite(t, bench.Queries["q12_1"], ast11)
		if !strings.Contains(strings.ToLower(sql), " or ") {
			t.Errorf("expected disjunctive slicing, got: %s", sql)
		}
	})

	t.Run("Q12.2_union_fallback", func(t *testing.T) {
		sql := e.mustRewrite(t, bench.Queries["q12_2"], ast11)
		if !strings.Contains(strings.ToLower(sql), "grouping sets") {
			t.Errorf("expected multidimensional regrouping, got: %s", sql)
		}
	})
}

// TestTable1_HavingMismatch reproduces the paper's Table 1/Figure 15
// counter-example: adding HAVING count(*) > 2 to the AST must prevent the
// match, because the AST's monthly HAVING eliminates partial groups the
// yearly query still needs — the translated predicate sum(cnt) > 2 differs
// semantically from the AST's cnt > 2.
func TestTable1_HavingMismatch(t *testing.T) {
	e := newEnv(t, 2000)
	e.mustNotRewrite(t, bench.Queries["qbad"], e.registerAST(t, "astbad", bench.ASTDefs["astbad"]))

	// The paper's exact 4-row example, for good measure.
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "trans",
		Columns: []catalog.Column{
			{Name: "flid", Type: sqltypes.KindInt},
			{Name: "date", Type: sqltypes.KindDate},
		},
	})
	store := storage.NewStore()
	td := store.Create(mustTab(cat, "trans"))
	for _, d := range []string{"1990-01-03", "1990-02-10", "1990-04-12", "1991-10-20"} {
		td.MustInsert(sqltypes.NewInt(1), sqltypes.MustParseDate(d))
	}
	engine := exec.NewEngine(store)
	rw := core.NewRewriter(cat, core.Options{})
	ca, err := rw.CompileAST(catalog.ASTDef{Name: "astbad", SQL: bench.ASTDefs["astbad"]})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(ca.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// AST result: only (1, 1990, 3) — the (1, 1991, 1) group is eliminated.
	if len(res.Rows) != 1 || res.Rows[0][2].Int() != 3 {
		t.Fatalf("AST result unexpected: %v", res.Rows)
	}
	q, err := qgm.BuildSQL(bench.Queries["qbad"], cat)
	if err != nil {
		t.Fatal(err)
	}
	if r := rw.Rewrite(q, ca); r != nil {
		t.Fatalf("unsound rewrite accepted: %s", q.SQL())
	}
}

func mustTab(cat *catalog.Catalog, name string) *catalog.Table {
	tb, ok := cat.Table(name)
	if !ok {
		panic("missing " + name)
	}
	return tb
}

// TestExactMatch checks the identity case: the query equals the AST modulo
// column order and extra AST columns (footnote 5).
func TestExactMatch(t *testing.T) {
	e := newEnv(t, 1000)
	ast := e.registerAST(t, "astx", `
		select flid, year(date) as year, count(*) as cnt, sum(qty) as q
		from trans
		group by flid, year(date)`)
	e.mustRewrite(t, `
		select year(date) as year, flid, count(*) as cnt
		from trans
		group by flid, year(date)`, ast)
}

// TestNonSubsumingPredicate checks that an AST filtering rows the query needs
// is rejected, while a strictly weaker AST predicate is compensated.
func TestNonSubsumingPredicate(t *testing.T) {
	e := newEnv(t, 1000)
	astNarrow := e.registerAST(t, "astnarrow",
		"select tid, faid, qty, price from trans where qty > 3")
	e.mustNotRewrite(t, "select tid, qty from trans where qty > 1", astNarrow)
	// Subsumption the other way: AST keeps more rows; predicate re-applied.
	e.mustRewrite(t, "select tid, qty from trans where qty > 4", astNarrow)
}

// TestLossyExtraJoinRejected: the AST joins a dimension with a local filter,
// losing rows — no RI constraint covers that, so the match must fail.
func TestLossyExtraJoinRejected(t *testing.T) {
	e := newEnv(t, 1000)
	astLossy := e.registerAST(t, "astlossy", `
		select tid, faid, qty from trans, loc
		where flid = lid and country = 'USA'`)
	e.mustNotRewrite(t, "select tid, qty from trans", astLossy)
}

// TestExtraJoinLossless: an AST with a pure RI extra join is usable.
func TestExtraJoinLossless(t *testing.T) {
	e := newEnv(t, 1000)
	ast := e.registerAST(t, "astextra", `
		select tid, faid, qty, price, country from trans, loc
		where flid = lid`)
	e.mustRewrite(t, "select tid, qty from trans where price > 100", ast)
}
