package core_test

import (
	"context"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
)

const pcAggSQL = `select faid, year(date) as year, count(*) as cnt
                  from trans group by faid, year(date)`

// TestPlanCacheHit: the second identical query is answered from the cache —
// no matching runs — and executes to the same result; textual variants of
// the same query (case, whitespace) have its template and hit the same entry.
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

	// A text with the same template reuses the entry.
	variant := "SELECT   faid,\n\tCOUNT(*) AS cnt  FROM trans  GROUP BY faid"
	cr3, err := e.rw.RewriteSQLCached(ctx, cache, variant, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr3.Hit {
		t.Fatalf("a text with the same template missed the cache")
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
// would refuse that AST. The key carries the usable set, so the plans of the
// era in which the table was usable are not found while it is not — and are
// found again when it is back: a refresh is not a flush.
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

	// Fresh again: the stale-era base plan must not stick — the rewrite comes
	// back, and it is the fresh-era entry that answers (the usable set is what
	// it was; the epoch the refresh bumped is not part of the key).
	e.cat.MarkFresh("pc_stale")
	cr3, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr3.Hit || cr3.AST != "pc_stale" {
		t.Fatalf("refreshed AST not re-chosen from its era's entry: %+v", cr3)
	}
	// A refresh that leaves the table usable moves nothing.
	e.cat.MarkFresh("pc_stale")
	cr4, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr4.Hit || cr4.AST != "pc_stale" {
		t.Fatalf("a refresh flushed the entry: %+v", cr4)
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
	if cr5.AST != "" {
		t.Fatalf("quarantined AST served from cache: %+v", cr5)
	}
	// Stale under AllowStale is usable: that rewriter has its own era.
	lenient := core.NewRewriter(e.cat, core.Options{AllowStale: true})
	e.cat.MarkFresh("pc_stale")
	e.cat.MarkStale("pc_stale")
	if cr, err := lenient.RewriteSQLCached(ctx, cache, sql, asts, e.store); err != nil || cr.AST != "pc_stale" {
		t.Fatalf("AllowStale rewriter refused a stale AST: %+v, %v", cr, err)
	}
	if cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store); err != nil || cr.AST != "" {
		t.Fatalf("strict rewriter served a stale AST from the lenient era: %+v, %v", cr, err)
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

// compLabelSerial is the process-wide serial in a compensation box's label,
// the one part of a printed plan that differs between two plannings of one
// statement.
var compLabelSerial = regexp.MustCompile(`-C\d+`)

// printPlan prints a plan with box and quantifier ids as a clone numbers them
// and compensation labels without their serial.
func printPlan(g *qgm.Graph) string {
	return compLabelSerial.ReplaceAllString(g.Clone().Dump(), "-C")
}

// lookupAndCheck sends sql through the cache and checks the plan it got
// against planning the same text with no cache at all: the same printed plan
// (box and quantifier ids as a clone numbers them) and the same rows as the
// statement's base plan.
func lookupAndCheck(t *testing.T, e *env, cache *core.PlanCache, sql string, asts []*core.CompiledAST) *core.CachedRewrite {
	t.Helper()
	ctx := context.Background()
	cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	base, err := qgm.BuildSQL(sql, e.cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	fresh, res := e.rw.RewriteOrFallback(ctx, base, asts, e.store)
	if got, want := printPlan(cr.Plan), printPlan(fresh); got != want {
		t.Fatalf("%s (hit=%t): cached plan differs from a fresh one\ncached:\n%s\nfresh:\n%s", sql, cr.Hit, got, want)
	}
	if (res == nil) != (cr.AST == "") || (res != nil && res.AST.Def.Name != cr.AST) {
		t.Fatalf("%s (hit=%t): cached plan reads %q, fresh planning chose %+v", sql, cr.Hit, cr.AST, res)
	}
	if diff := exec.EqualResults(mustRun(t, e, base), mustRun(t, e, cr.Plan)); diff != "" {
		t.Fatalf("%s (hit=%t): %s", sql, cr.Hit, diff)
	}
	return cr
}

// TestPlanCacheBindsLiterals: statements that differ only in literals planning
// never looked at share one entry, and each gets its own literals' answer.
func TestPlanCacheBindsLiterals(t *testing.T) {
	e := newEnv(t, 2000)
	asts := []*core.CompiledAST{e.registerAST(t, "pc_bind", pcAggSQL)}
	cache := core.NewPlanCache(8)
	for i, sql := range []string{
		"select faid, count(*) as cnt from trans where faid <= 5 group by faid having count(*) > 2.5",
		"select faid, count(*) as cnt from trans where faid <= 9 group by faid having count(*) > 0.25",
		"SELECT faid, count(*) AS cnt -- isn't this 'the same'?\n FROM trans WHERE faid <= 2 GROUP BY faid HAVING count(*) > 40.0",
	} {
		cr := lookupAndCheck(t, e, cache, sql, asts)
		if cr.AST != "pc_bind" || cr.Hit != (i > 0) {
			t.Fatalf("statement %d: hit=%t ast=%q", i, cr.Hit, cr.AST)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("%d entries for one template", cache.Len())
	}

	// A string literal, quotes and all, binds like a number.
	for i, sql := range []string{
		"select state, count(*) as n from loc where city <> 'Paris' group by state",
		"select state, count(*) as n from loc where city <> 'O''Hara -- ' group by state",
		"select state, count(*) as n from loc where city <> '' group by state",
	} {
		if cr := lookupAndCheck(t, e, cache, sql, asts); cr.Hit != (i > 0) {
			t.Fatalf("string statement %d: hit=%t", i, cr.Hit)
		}
	}
}

// TestPlanCachePinsWhatPlanningRead: a decision that rested on a literal is
// never reused for another value of it. Each case is a summary table with a
// predicate and statements whose literal decides whether, and how, it serves.
func TestPlanCachePinsWhatPlanningRead(t *testing.T) {
	e := newEnv(t, 2000)
	type step struct {
		sql      string
		hit      bool
		ast      string
		variants int // entries afterwards
	}
	for _, tc := range []struct {
		name, def string
		steps     []step
	}{
		{"range", `select flid, year(date) as year, count(*) as cnt from trans
		           where year(date) > 1990 group by flid, year(date)`, []step{
			// Footnote 4: > 1990 subsumes > 1991 and not > 1989.
			{"select flid, count(*) as cnt from trans where year(date) > 1991 group by flid", false, "pin_range", 1},
			{"select flid, count(*) as cnt from trans where year(date) > 1989 group by flid", false, "", 2},
			{"select flid, count(*) as cnt from trans where year(date) > 1991 group by flid", true, "pin_range", 2},
			{"select flid, count(*) as cnt from trans where year(date) > 1990 group by flid", false, "pin_range", 3},
			{"select flid, count(*) as cnt from trans where year(date) > 1989 group by flid", true, "", 3},
		}},
		{"in-list", `select flid, faid, count(*) as cnt from trans
		             where faid in (1, 2) group by flid, faid`, []step{
			{"select flid, count(*) as cnt from trans where faid in (1, 2) group by flid", false, "pin_in-list", 1},
			{"select flid, count(*) as cnt from trans where faid in (1, 3) group by flid", false, "", 2},
			{"select flid, count(*) as cnt from trans where faid in (2, 1) group by flid", false, "pin_in-list", 3},
			{"select flid, count(*) as cnt from trans where faid in (1, 2) group by flid", true, "pin_in-list", 3},
		}},
		{"equality", `select flid, state, count(*) as cnt from trans, loc
		              where flid = lid and country = 'USA' group by flid, state`, []step{
			{"select state, count(*) as cnt from trans, loc where flid = lid and country = 'USA' group by state", false, "pin_equality", 1},
			{"select state, count(*) as cnt from trans, loc where flid = lid and country = 'Canada' group by state", false, "", 2},
			{"select state, count(*) as cnt from trans, loc where flid = lid and country = 'USA' group by state", true, "pin_equality", 2},
		}},
		{"aggregate-argument", `select flid, sum(qty * price * (1 - disc)) as net from trans group by flid`, []step{
			// The statement's 1 is the table's 1 only while it is 1.
			{"select flid, sum(qty * price * (1 - disc)) as net from trans group by flid having sum(qty * price * (1 - disc)) > 10.5", false, "pin_aggregate-argument", 1},
			{"select flid, sum(qty * price * (1 - disc)) as net from trans group by flid having sum(qty * price * (1 - disc)) > 99.5", true, "pin_aggregate-argument", 1},
			{"select flid, sum(qty * price * (2 - disc)) as net from trans group by flid having sum(qty * price * (2 - disc)) > 10.5", false, "", 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asts := []*core.CompiledAST{e.registerAST(t, "pin_"+tc.name, tc.def)}
			cache := core.NewPlanCache(16)
			for i, s := range tc.steps {
				cr := lookupAndCheck(t, e, cache, s.sql, asts)
				if cr.Hit != s.hit || cr.AST != s.ast || cache.Len() != s.variants {
					t.Fatalf("step %d %s:\n hit=%t ast=%q entries=%d, want hit=%t ast=%q entries=%d",
						i, s.sql, cr.Hit, cr.AST, cache.Len(), s.hit, s.ast, s.variants)
				}
			}
		})
	}
}

// TestPlanCacheTemplateIsTypedAndParsed: what is not a plain number or string
// literal is template text or a pinned literal, so it can never be bound to
// something else.
func TestPlanCacheTemplateIsTypedAndParsed(t *testing.T) {
	e := newEnv(t, 1000)
	asts := []*core.CompiledAST{e.registerAST(t, "pc_typed", pcAggSQL)}
	cache := core.NewPlanCache(32)
	for _, s := range []struct {
		sql     string
		hit     bool
		entries int
	}{
		// One position, three kinds of literal: three templates.
		{"select faid, 3 as k, count(*) as cnt from trans group by faid", false, 1},
		{"select faid, 3.5 as k, count(*) as cnt from trans group by faid", false, 2},
		{"select faid, '3' as k, count(*) as cnt from trans group by faid", false, 3},
		{"select faid, 4 as k, count(*) as cnt from trans group by faid", true, 3},
		// The parser folds the minus into the literal: pinned.
		{"select faid, count(*) as cnt from trans where faid > -5 group by faid", false, 4},
		{"select faid, count(*) as cnt from trans where faid > -1 group by faid", false, 5},
		{"select faid, count(*) as cnt from trans where faid > -5 group by faid", true, 5},
		{"select faid, count(*) as cnt from trans where faid > - 1 group by faid", true, 5},
		// So does DATE '…'.
		{"select faid, count(*) as cnt from trans where date > DATE '1991-02-03' group by faid", false, 6},
		{"select faid, count(*) as cnt from trans where date > DATE '1992-02-03' group by faid", false, 7},
		{"select faid, count(*) as cnt from trans where date > date '1991-02-03' group by faid", true, 7},
		// NULL, TRUE and FALSE are keywords.
		{"select faid, count(*) as cnt from trans where faid > 1 and true group by faid", false, 8},
		{"select faid, count(*) as cnt from trans where faid > 1 and false group by faid", false, 9},
		{"select faid, count(*) as cnt from trans where faid > 7 and true group by faid", true, 9},
		{"select faid, null as n, count(*) as cnt from trans group by faid", false, 10},
		// ORDER BY is parsed and ignored: its literal reaches no expression.
		{"select faid, count(*) as cnt from trans group by faid order by 1", false, 11},
		{"select faid, count(*) as cnt from trans group by faid order by 2", true, 11},
	} {
		cr := lookupAndCheck(t, e, cache, s.sql, asts)
		if cr.Hit != s.hit || cache.Len() != s.entries {
			t.Fatalf("%s:\n hit=%t entries=%d, want hit=%t entries=%d", s.sql, cr.Hit, cache.Len(), s.hit, s.entries)
		}
	}

	// What does not lex or parse fails as it does without a cache.
	for _, sql := range []string{
		"select faid from trans where faid > 99999999999999999999",
		"select faid from trans where faid > 1.5.5x",
		"select 'open from trans",
		"select faid from trans where",
		"select nosuch from trans where faid > 1",
	} {
		_, want := qgm.BuildSQL(sql, e.cat)
		_, got := e.rw.RewriteSQLCached(context.Background(), cache, sql, asts, e.store)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s:\n cached: %v\n plain:  %v", sql, got, want)
		}
	}
}

// TestPlanCacheVariantsAreBoundedPerTemplate: a template whose pinned literal
// keeps changing holds maxVariants plans, the least recently used one making
// room, and never crowds other templates out.
func TestPlanCacheVariantsAreBoundedPerTemplate(t *testing.T) {
	e := newEnv(t, 1000)
	asts := []*core.CompiledAST{e.registerAST(t, "pc_var", `
		select flid, year(date) as year, count(*) as cnt from trans
		where year(date) > 1985 group by flid, year(date)`)}
	cache := core.NewPlanCache(32)
	other := "select faid, count(*) as cnt from trans group by faid"
	lookupAndCheck(t, e, cache, other, asts)
	q := func(y int) string {
		return "select flid, count(*) as cnt from trans where year(date) > " + strconv.Itoa(y) + " group by flid"
	}
	for y := 1986; y < 1996; y++ {
		if cr := lookupAndCheck(t, e, cache, q(y), asts); cr.Hit {
			t.Fatalf("year %d hit another year's plan", y)
		}
	}
	if cache.Len() != 1+4 {
		t.Fatalf("%d entries, want the other template's one and four variants", cache.Len())
	}
	if cr := lookupAndCheck(t, e, cache, q(1992), asts); !cr.Hit {
		t.Fatal("a recent variant was dropped")
	}
	if cr := lookupAndCheck(t, e, cache, q(1986), asts); cr.Hit {
		t.Fatal("the oldest variant was kept")
	}
	if cr := lookupAndCheck(t, e, cache, other, asts); !cr.Hit {
		t.Fatal("variants of one template evicted another template")
	}
}

// TestPlanCacheHitAllocs pins what a hit allocates: the template, the literal
// vector and the bound copy of the plan, and nothing for the shard lookup
// itself — a closure handed to the shard's Guarded that escaped would show
// here first. The bound was measured at the commit before the shards moved
// onto rcu.Guarded.
func TestPlanCacheHitAllocs(t *testing.T) {
	e := newEnv(t, 2000)
	asts := []*core.CompiledAST{e.registerAST(t, "pc_agg", pcAggSQL)}
	cache := core.NewPlanCache(8)
	ctx := context.Background()
	sql := "select faid, count(*) as cnt from trans where faid > 3 group by faid"
	lookup := func() {
		cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
		if err != nil || cr.AST != "pc_agg" {
			t.Fatalf("lookup: %+v, %v", cr, err)
		}
	}
	lookup()
	const parent = 46
	if got := testing.AllocsPerRun(200, lookup); got > parent {
		t.Fatalf("a plan-cache hit allocated %.0f times, %d at the parent", got, parent)
	}
}
