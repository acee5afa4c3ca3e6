package astdb_test

import (
	"context"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// planChoice is one planning outcome: the summary table chosen for a query
// ("" = base tables), the paper pattern of the match, and its scan-cost
// estimate.
type planChoice struct {
	query, ast, pattern string
	base, rewritten     int
}

// The plan chosen for q1–q12 + qbad + the DS suite at goldenScale, recorded
// from EXPLAIN at the parent commit of PR 16 (which raced one goroutine per
// candidate over private graph clones and re-matched the winner). Cost-based
// selection must keep reproducing it — over the paper's summary tables, and
// over the set the end-to-end benchmark registers (ast1, ast6, ast7 + the DS
// tables), where ten candidates compete and ast7 ties nothing.
var (
	paperSetChoices = []planChoice{
		{"ds1", "", "", 0, 0},
		{"ds10", "", "", 0, 0},
		{"ds11", "", "", 0, 0},
		{"ds12", "", "", 0, 0},
		{"ds2", "", "", 0, 0},
		{"ds3", "", "", 0, 0},
		{"ds4", "", "", 0, 0},
		{"ds5", "", "", 0, 0},
		{"ds6", "ast11", "§4.2.3", 1500, 833},
		{"ds7", "ast10", "§4.2.4", 3200, 406},
		{"ds8", "", "", 0, 0},
		{"ds9", "ast10", "§4.2.4", 1700, 406},
		{"q1", "ast1", "§4.2.4", 1700, 446},
		{"q10", "ast10", "§4.2.4", 3200, 406},
		{"q11_1", "ast10", "§4.2.3", 1500, 206}, // ties ast7 on gain: the smaller name wins
		{"q11_2", "ast11", "§4.2.4", 1500, 833},
		{"q11_3", "", "", 0, 0},
		{"q12_1", "ast10", "§4.2.4", 1500, 206},
		{"q12_2", "ast10", "§4.2.4", 1500, 206},
		{"q2", "ast2", "§4.1.1", 1554, 1031},
		{"q4", "ast6", "§4.2.4", 1500, 36},
		{"q6", "ast6", "§4.2.4", 1500, 36},
		{"q7", "ast10", "§4.2.3", 1700, 406},
		{"q8", "ast8", "§4.2.4", 1500, 29},
		{"qbad", "ast10", "§4.2.4", 1500, 206},
	}
	benchmarkSetChoices = []planChoice{
		{"ds1", "st_product_month", "§4.2.4", 1500, 1012},
		{"ds10", "st_product_basket", "§4.2.4", 1500, 150},
		{"ds11", "st_acct_spend", "§4.1.1", 1500, 4},
		{"ds12", "st_acct_year", "§4.2.4", 1500, 12},
		{"ds2", "st_loc_year", "§4.2.4", 1700, 578},
		{"ds3", "st_acct_year", "§4.2.4", 1500, 12},
		{"ds4", "st_product_month", "§4.2.4", 1500, 1012},
		{"ds5", "st_disc_year", "§4.2.4", 1500, 90},
		{"ds6", "st_loc_month_detail", "§4.1.1", 1500, 378},
		{"ds7", "ast7", "§4.2.4", 3200, 406},
		{"ds8", "st_product_month", "§4.2.4", 1500, 1012},
		{"ds9", "ast7", "§4.2.4", 1700, 406},
		{"q1", "ast1", "§4.2.4", 1700, 446},
		{"q10", "ast7", "§4.2.4", 3200, 406},
		{"q11_1", "ast7", "§4.2.3", 1500, 206},
		{"q11_2", "st_loc_month_detail", "§4.2.4", 1500, 378},
		{"q11_3", "", "", 0, 0},
		{"q12_1", "ast7", "§4.2.4", 1500, 206},
		{"q12_2", "ast7", "§4.2.4", 1500, 206},
		{"q2", "", "", 0, 0},
		{"q4", "st_acct_year", "§4.2.4", 1500, 12},
		{"q6", "ast6", "§4.2.4", 1500, 36},
		{"q7", "ast7", "§4.2.3", 1700, 406},
		{"q8", "st_loc_month_detail", "§4.2.4", 1500, 378},
		{"qbad", "ast7", "§4.2.4", 1500, 206},
	}
	// The three golden scenarios: one summary table each.
	goldenChoices = map[string]planChoice{
		"ast1":   {"q1", "ast1", "§4.2.4", 1700, 446},
		"astbad": {"qbad", "", "", 0, 0},
		"ast7":   {"q7", "ast7", "§4.2.3", 1700, 406},
	}
)

// suiteSQL resolves a paper or DS query name to its SQL.
func suiteSQL(t *testing.T, name string) string {
	t.Helper()
	if sql, ok := bench.Queries[name]; ok {
		return sql
	}
	for _, q := range workload.DSQueries {
		if q.Name == name {
			return q.SQL
		}
	}
	t.Fatalf("unknown suite query %q", name)
	return ""
}

// benchmarkSetEnv registers the summary tables the end-to-end benchmark runs
// with.
func benchmarkSetEnv(t *testing.T) *bench.Env {
	t.Helper()
	env := bench.NewEnvDefault(goldenScale)
	for _, name := range []string{"ast1", "ast6", "ast7"} {
		env.MustRegisterAST(name, bench.ASTDefs[name])
	}
	for _, a := range workload.DSASTs {
		env.MustRegisterAST(a.Name, a.SQL)
	}
	return env
}

// checkChoice requires one engine to report (Explain), plan (Rewrite) and run
// (Query) the recorded choice.
func checkChoice(t *testing.T, db *astdb.Engine, engine string, want planChoice) {
	t.Helper()
	ctx := context.Background()
	sql := suiteSQL(t, want.query)

	rep, err := db.Explain(ctx, sql)
	if err != nil {
		t.Fatalf("%s/%s: explain: %v", engine, want.query, err)
	}
	if got := (planChoice{want.query, rep.ChosenAST, rep.ChosenPattern, rep.EstBaseRows, rep.EstRewrittenRows}); got != want {
		t.Errorf("%s/%s: EXPLAIN chose %+v, recorded %+v", engine, want.query, got, want)
	}

	match := func(res *core.Result) string {
		if res == nil {
			return ""
		}
		return res.Match.Pattern
	}
	ans, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatalf("%s/%s: query: %v", engine, want.query, err)
	}
	if ans.AST != rep.ChosenAST || match(ans.Rewrite) != rep.ChosenPattern {
		t.Errorf("%s/%s: Query ran (%q, %q), EXPLAIN printed (%q, %q)",
			engine, want.query, ans.AST, match(ans.Rewrite), rep.ChosenAST, rep.ChosenPattern)
	}
	// The facade's third planning route: a restricted candidate set bypasses
	// the plan cache.
	if want.ast != "" {
		cr, err := db.Rewrite(ctx, sql, want.ast)
		if err != nil {
			t.Fatalf("%s/%s: rewrite: %v", engine, want.query, err)
		}
		if cr.AST != want.ast || match(cr.Rewrite) != want.pattern {
			t.Errorf("%s/%s: Rewrite(only %s) planned (%q, %q)", engine, want.query, want.ast, cr.AST, match(cr.Rewrite))
		}
	}
}

// TestSelectionParity: every planning route of the facade — Explain, Query and
// Rewrite, with a plan cache and without one — makes the choice recorded at
// the parent commit. Before PR 16 the uncached routes chose by box height
// (ast1 where the cost model picks ast10 or ast7), and EXPLAIN gated its plan
// with a weaker check than Query's.
func TestSelectionParity(t *testing.T) {
	engines := func(env *bench.Env) map[string]*astdb.Engine {
		return map[string]*astdb.Engine{
			"cached":   env.DB(),
			"uncached": env.DB(astdb.WithPlanCache(-1)),
		}
	}
	paper := bench.NewEnvDefault(goldenScale)
	for name, sql := range bench.ASTDefs {
		paper.MustRegisterAST(name, sql)
	}
	for engine, db := range engines(paper) {
		for _, want := range paperSetChoices {
			checkChoice(t, db, "paper set/"+engine, want)
		}
	}
	for engine, db := range engines(benchmarkSetEnv(t)) {
		for _, want := range benchmarkSetChoices {
			checkChoice(t, db, "benchmark set/"+engine, want)
		}
	}
	for ast, want := range goldenChoices {
		env := bench.NewEnvDefault(goldenScale)
		env.MustRegisterAST(ast, bench.ASTDefs[ast])
		for engine, db := range engines(env) {
			checkChoice(t, db, "golden "+ast+"/"+engine, want)
		}
	}
}

// TestPlanningMatchesEachCandidateOnce: a cache miss runs the matcher once per
// admitted candidate — the winner is not matched again to be spliced — and
// Explain parses the statement once and matches every registered table once,
// pruned or not.
func TestPlanningMatchesEachCandidateOnce(t *testing.T) {
	o := obs.New()
	db := benchmarkSetEnv(t).DB(astdb.WithObserver(o))
	ctx := context.Background()
	parses := func() (n int) {
		for _, sp := range o.Snapshot().Spans {
			if sp.Name == "parse" {
				n++
			}
		}
		return n
	}
	for _, want := range benchmarkSetChoices {
		sql := suiteSQL(t, want.query)
		matched, admitted := o.Counter(core.CtrMatchCandidates), o.Counter(core.CtrPruneAdmitted)
		if _, err := db.Query(ctx, sql); err != nil {
			t.Fatalf("%s: %v", want.query, err)
		}
		matched, admitted = o.Counter(core.CtrMatchCandidates)-matched, o.Counter(core.CtrPruneAdmitted)-admitted
		if matched != admitted || (want.ast != "" && matched == 0) {
			t.Errorf("%s: matcher ran %d times for %d admitted candidates", want.query, matched, admitted)
		}

		matched, parsed := o.Counter(core.CtrMatchCandidates), parses()
		if _, err := db.Explain(ctx, sql); err != nil {
			t.Fatalf("%s: explain: %v", want.query, err)
		}
		if got, tables := o.Counter(core.CtrMatchCandidates)-matched, int64(len(db.ASTs())); got != tables {
			t.Errorf("%s: EXPLAIN ran the matcher %d times over %d tables", want.query, got, tables)
		}
		if got := parses() - parsed; got != 1 {
			t.Errorf("%s: EXPLAIN parsed the statement %d times", want.query, got)
		}
	}
}
