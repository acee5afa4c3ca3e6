package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
)

const pcAggSQL = `select faid, year(date) as year, count(*) as cnt
                  from trans group by faid, year(date)`

// TestPlanCacheHit: the second identical query is answered from the cache —
// no matching runs — and executes to the same result; textual variants of
// the same query (case, whitespace) hit the same entry.
func TestPlanCacheHit(t *testing.T) {
	e := newEnv(t, 2000)
	ast := e.registerAST(t, "pc_agg", pcAggSQL)
	asts := []*core.CompiledAST{ast}
	cache := core.NewPlanCache(8)
	ctx := context.Background()
	sql := "select faid, count(*) as cnt from trans group by faid"

	cr1, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr1.Hit || cr1.AST != "pc_agg" || cr1.Rewrite == nil {
		t.Fatalf("first lookup: want rewritten miss, got %+v", cr1)
	}

	cr2, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr2.Hit || cr2.AST != "pc_agg" {
		t.Fatalf("second lookup: want hit, got %+v", cr2)
	}
	if diff := exec.EqualResults(mustRun(t, e, cr1.Plan), mustRun(t, e, cr2.Plan)); diff != "" {
		t.Fatalf("cached plan result differs: %s", diff)
	}

	// Normalized-equivalent text reuses the entry.
	variant := "SELECT   faid,\n\tCOUNT(*) AS cnt  FROM trans  GROUP BY faid"
	cr3, err := e.rw.RewriteSQLCached(ctx, cache, variant, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr3.Hit {
		t.Fatalf("normalized variant missed the cache")
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats: hits=%d misses=%d", hits, misses)
	}

	// Hits hand out private clones: mutating one must not poison the cache.
	cr2.Plan.Root = nil
	cr4, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr4.Plan.Root == nil {
		t.Fatal("cache returned the caller-mutated plan")
	}
}

// TestPlanCacheStalenessInvalidation is the safety test the cache exists to
// pass: once an AST goes stale (or is quarantined), a previously cached plan
// reading it must never be served to a rewriter whose Options.AllowStale
// would refuse that AST. Freshness transitions bump the key's fingerprint,
// so each status era gets its own entry.
func TestPlanCacheStalenessInvalidation(t *testing.T) {
	e := newEnv(t, 2000)
	ast := e.registerAST(t, "pc_stale", pcAggSQL)
	asts := []*core.CompiledAST{ast}
	cache := core.NewPlanCache(8)
	ctx := context.Background()
	sql := "select faid, count(*) as cnt from trans group by faid"

	cr1, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr1.AST != "pc_stale" {
		t.Fatalf("setup: query did not rewrite: %+v", cr1)
	}

	// Stale: the cached AST-reading plan must not surface; the query answers
	// from base tables.
	e.cat.MarkStale("pc_stale")
	cr2, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Hit || cr2.AST != "" {
		t.Fatalf("stale AST served from cache: %+v", cr2)
	}

	// Fresh again (epoch bumped): the stale-era base plan must not stick
	// either — the rewrite comes back.
	e.cat.MarkFresh("pc_stale")
	cr3, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr3.Hit || cr3.AST != "pc_stale" {
		t.Fatalf("refreshed AST not re-chosen: %+v", cr3)
	}
	cr4, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr4.Hit || cr4.AST != "pc_stale" {
		t.Fatalf("fresh-era entry not cached: %+v", cr4)
	}

	// Quarantine: same contract as stale, reached via refresh failures.
	e.cat.SetQuarantineThreshold(1)
	if st := e.cat.RecordRefreshFailure("pc_stale"); !st.Quarantined {
		t.Fatalf("setup: AST not quarantined: %+v", st)
	}
	cr5, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr5.Hit || cr5.AST != "" {
		t.Fatalf("quarantined AST served from cache: %+v", cr5)
	}
}

// TestPlanCacheEviction: the cache is bounded LRU — the oldest entry falls
// out at capacity and misses on its next lookup.
func TestPlanCacheEviction(t *testing.T) {
	e := newEnv(t, 1000)
	ast := e.registerAST(t, "pc_evict", pcAggSQL)
	asts := []*core.CompiledAST{ast}
	cache := core.NewPlanCache(2)
	ctx := context.Background()

	queries := []string{
		"select faid, count(*) as cnt from trans group by faid",
		"select year(date) as year, count(*) as cnt from trans group by year(date)",
		"select faid, year(date) as year, count(*) as cnt from trans group by faid, year(date)",
	}
	for _, q := range queries {
		if _, err := e.rw.RewriteSQLCached(ctx, cache, q, asts, e.store); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache len %d, want 2", cache.Len())
	}
	cr, err := e.rw.RewriteSQLCached(ctx, cache, queries[0], asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Hit {
		t.Fatal("evicted entry still hit")
	}
	cr2, err := e.rw.RewriteSQLCached(ctx, cache, queries[2], asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr2.Hit {
		t.Fatal("recent entry evicted")
	}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  X\n FROM t", "select x from t"},
		{"select x from t where s = 'CA'", "select x from t where s = 'CA'"},
		{"SELECT X FROM T WHERE S = 'CA'", "select x from t where s = 'CA'"},
		{"  select 1  ", "select 1"},
	}
	for _, c := range cases {
		if got := core.NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Literal contents must stay significant: 'CA' and 'ca' are different
	// queries even though everything around them case-folds.
	if core.NormalizeSQL("select 'CA' from t") == core.NormalizeSQL("select 'ca' from t") {
		t.Fatal("literal case folded away")
	}
}

// TestCostRewritePicksCheapestAndBreaksTiesByName: cost-based selection picks
// the candidate with the larger estimated gain and produces an equivalent
// plan, and equal gains resolve to the smaller summary-table name whatever
// the order of the candidate list.
func TestCostRewritePicksCheapestAndBreaksTiesByName(t *testing.T) {
	e := newEnv(t, 2000)
	wide := e.registerAST(t, "pcc_wide", `
		select tid, faid, flid, date, qty, price, disc, fpgid from trans`)
	small := e.registerAST(t, "pcc_small", pcAggSQL)
	sql := "select faid, count(*) as cnt from trans group by faid"

	orig, err := qgm.BuildSQL(sql, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	origRes := mustRun(t, e, orig)

	// Two copies of one definition have equal gain.
	tieB := e.registerAST(t, "tie_b", pcAggSQL)
	tieA := e.registerAST(t, "tie_a", pcAggSQL)

	for _, tc := range []struct {
		asts []*core.CompiledAST
		want string
	}{
		{[]*core.CompiledAST{wide, small}, "pcc_small"},
		{[]*core.CompiledAST{small, wide}, "pcc_small"},
		{[]*core.CompiledAST{tieB, tieA}, "tie_a"},
		{[]*core.CompiledAST{tieA, tieB}, "tie_a"},
		{[]*core.CompiledAST{tieB, wide, tieA}, "tie_a"},
	} {
		g, _ := qgm.BuildSQL(sql, e.cat)
		res := e.rw.RewriteBestCostCtx(context.Background(), g, tc.asts, e.store)
		if res == nil || res.AST.Def.Name != tc.want {
			t.Fatalf("%d candidates, first %s: want %s, got %+v", len(tc.asts), tc.asts[0].Def.Name, tc.want, res)
		}
		if diff := exec.EqualResults(origRes, mustRun(t, e, g)); diff != "" {
			t.Fatalf("rewritten against %s: %s", tc.want, diff)
		}
	}
}
