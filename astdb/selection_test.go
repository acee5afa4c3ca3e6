package astdb_test

import (
	"context"
	"slices"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// planChoice is one planning outcome: every splice of the plan chosen for a
// query, in splice order — the summary table, the paper pattern of its match
// and its scan-cost estimate — or nil for base tables.
type planChoice struct {
	query  string
	chosen []ch
}

type ch = astdb.Choice

// The plan chosen for q1–q12 + qbad + the DS suite at goldenScale, recorded
// from EXPLAIN at the parent commit of PR 16 (which raced one goroutine per
// candidate over private graph clones and re-matched the winner). Cost-based
// selection must keep reproducing it — over the paper's summary tables, and
// over the set the end-to-end benchmark registers (ast1, ast6, ast7 + the DS
// tables), where ten candidates compete and ast7 ties nothing. A row with
// several splices is a plan of the one-pass §7 selection: its first splice is
// the choice recorded then, and the later ones serve blocks that choice left
// on base tables. Q10 and ds7 read ast10 once: their match of ast10's root
// reads totcnt from ast10 too (Figure 11's NewQ10), so no block is left for a
// second splice.
var (
	paperSetChoices = []planChoice{
		{"ds1", nil},
		{"ds10", nil},
		{"ds11", nil},
		{"ds12", nil},
		{"ds2", nil},
		{"ds3", nil},
		{"ds4", nil},
		{"ds5", nil},
		{"ds6", []ch{{"ast11", "§4.2.3", 1500, 833}}},
		{"ds7", []ch{{"ast10", "§4.2.4", 3200, 406}}},
		{"ds8", nil},
		{"ds9", []ch{{"ast10", "§4.2.4", 1700, 406}}},
		{"q1", []ch{{"ast1", "§4.2.4", 1700, 446}}},
		{"q10", []ch{{"ast10", "§4.2.4", 3200, 406}}},
		{"q11_1", []ch{{"ast10", "§4.2.3", 1500, 206}}}, // ties ast7 on gain: the smaller name wins
		{"q11_2", []ch{{"ast11", "§4.2.4", 1500, 833}}},
		{"q11_3", nil},
		{"q12_1", []ch{{"ast10", "§4.2.4", 1500, 206}}},
		{"q12_2", []ch{{"ast10", "§4.2.4", 1500, 206}}},
		{"q2", []ch{{"ast2", "§4.1.1", 1554, 1031}}},
		{"q4", []ch{{"ast6", "§4.2.4", 1500, 36}}},
		{"q6", []ch{{"ast6", "§4.2.4", 1500, 36}}},
		{"q7", []ch{{"ast10", "§4.2.3", 1700, 406}}},
		{"q8", []ch{{"ast8", "§4.2.4", 1500, 29}}},
		{"qbad", []ch{{"ast10", "§4.2.4", 1500, 206}}},
	}
	benchmarkSetChoices = []planChoice{
		{"ds1", []ch{{"st_product_month", "§4.2.4", 1500, 1012}}},
		{"ds10", []ch{{"st_product_basket", "§4.2.4", 1500, 150}}},
		{"ds11", []ch{{"st_acct_spend", "§4.1.1", 1500, 4}, {"st_acct_spend", "§4.2.4", 1500, 4}}},
		{"ds12", []ch{{"st_acct_year", "§4.2.4", 1500, 12}}},
		{"ds2", []ch{{"st_loc_year", "§4.2.4", 1700, 578}}},
		{"ds3", []ch{{"st_acct_year", "§4.2.4", 1500, 12}}},
		{"ds4", []ch{{"st_product_month", "§4.2.4", 1500, 1012}}},
		{"ds5", []ch{{"st_disc_year", "§4.2.4", 1500, 90}}},
		{"ds6", []ch{{"st_loc_month_detail", "§4.1.1", 1500, 378}}},
		{"ds7", []ch{{"ast7", "§4.2.4", 3200, 406}, {"st_acct_spend", "§4.2.4", 1500, 4}}},
		{"ds8", []ch{{"st_product_month", "§4.2.4", 1500, 1012}}},
		{"ds9", []ch{{"ast7", "§4.2.4", 1700, 406}}},
		{"q1", []ch{{"ast1", "§4.2.4", 1700, 446}}},
		{"q10", []ch{{"ast7", "§4.2.4", 3200, 406}, {"st_acct_spend", "§4.2.4", 1500, 4}}},
		{"q11_1", []ch{{"ast7", "§4.2.3", 1500, 206}}},
		{"q11_2", []ch{{"st_loc_month_detail", "§4.2.4", 1500, 378}}},
		{"q11_3", nil},
		{"q12_1", []ch{{"ast7", "§4.2.4", 1500, 206}}},
		{"q12_2", []ch{{"ast7", "§4.2.4", 1500, 206}}},
		{"q2", nil},
		{"q4", []ch{{"st_acct_year", "§4.2.4", 1500, 12}}},
		{"q6", []ch{{"ast6", "§4.2.4", 1500, 36}}},
		{"q7", []ch{{"ast7", "§4.2.3", 1700, 406}}},
		{"q8", []ch{{"st_loc_month_detail", "§4.2.4", 1500, 378}}},
		{"qbad", []ch{{"ast7", "§4.2.4", 1500, 206}}},
	}
	// The three golden scenarios: one summary table each.
	goldenChoices = map[string]planChoice{
		"ast1":   {"q1", []ch{{"ast1", "§4.2.4", 1700, 446}}},
		"astbad": {"qbad", nil},
		"ast7":   {"q7", []ch{{"ast7", "§4.2.3", 1700, 406}}},
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

// checkChoice requires one engine to report the recorded choice (Explain, which
// plans without the plan cache) and to run it (Query), on the miss that
// stores the plan and on the hit that reuses it.
func checkChoice(t *testing.T, db *astdb.Engine, engine string, want planChoice) {
	t.Helper()
	ctx := context.Background()
	sql := suiteSQL(t, want.query)

	rep, err := db.Explain(ctx, sql)
	if err != nil {
		t.Fatalf("%s/%s: explain: %v", engine, want.query, err)
	}
	if !slices.Equal(rep.Chosen, want.chosen) {
		t.Errorf("%s/%s: EXPLAIN chose %+v, recorded %+v", engine, want.query, rep.Chosen, want.chosen)
	}
	var tables, patterns []string
	for _, c := range rep.Chosen {
		tables, patterns = append(tables, c.AST), append(patterns, c.Pattern)
	}

	for _, hit := range []bool{false, true} {
		ans, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s/%s: query: %v", engine, want.query, err)
		}
		if ans.CacheHit != hit || !slices.Equal(ans.ASTs, tables) {
			t.Errorf("%s/%s: Query ran %q (hit=%t), EXPLAIN printed %q (want hit=%t)",
				engine, want.query, ans.ASTs, ans.CacheHit, tables, hit)
		}
		if !hit && !slices.Equal(splicePatterns(ans.Rewrite), patterns) {
			t.Errorf("%s/%s: Query matched by %q, EXPLAIN printed %q",
				engine, want.query, splicePatterns(ans.Rewrite), patterns)
		}
	}
}

// splicePatterns lists the paper pattern of every splice of a rewrite.
func splicePatterns(res *core.Result) []string {
	if res == nil {
		return nil
	}
	out := []string{res.Match.Pattern}
	for _, r := range res.More {
		out = append(out, r.Match.Pattern)
	}
	return out
}

// TestSelectionParity: on one engine, Explain (uncached), Query on a plan-cache
// miss and Query on a hit make the choice recorded at the parent commit of
// PR 16. Before it the uncached routes chose by box height (ast1 where the
// cost model picks ast10 or ast7), and EXPLAIN gated its plan with a weaker
// check than Query's.
func TestSelectionParity(t *testing.T) {
	paper := bench.NewEnvDefault(goldenScale)
	for name, sql := range bench.ASTDefs {
		paper.MustRegisterAST(name, sql)
	}
	db := paper.DB()
	for _, want := range paperSetChoices {
		checkChoice(t, db, "paper set", want)
	}
	db = benchmarkSetEnv(t).DB()
	for _, want := range benchmarkSetChoices {
		checkChoice(t, db, "benchmark set", want)
	}
	for ast, want := range goldenChoices {
		env := bench.NewEnvDefault(goldenScale)
		env.MustRegisterAST(ast, bench.ASTDefs[ast])
		checkChoice(t, env.DB(), "golden "+ast, want)
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
		if matched != admitted || (want.chosen != nil && matched == 0) {
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
