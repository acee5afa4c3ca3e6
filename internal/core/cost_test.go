package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
)

// TestCostBasedPrefersSmallerAST: between a projection AST (same size as the
// fact table) and an aggregated AST, the cost-based router picks the smaller.
func TestCostBasedPrefersSmallerAST(t *testing.T) {
	e := newEnv(t, 2000)
	wide := e.registerAST(t, "cb_wide", `
		select tid, faid, flid, date, qty, price, disc, fpgid from trans`)
	small := e.registerAST(t, "cb_small", `
		select faid, year(date) as year, count(*) as cnt
		from trans group by faid, year(date)`)

	sql := "select faid, count(*) as cnt from trans group by faid"
	orig, err := qgm.BuildSQL(sql, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	origRes := mustRun(t, e, orig)

	g, _ := qgm.BuildSQL(sql, e.cat)
	res := e.rw.RewriteBestCostCtx(context.Background(), g, []*core.CompiledAST{wide, small}, e.store)
	if res == nil {
		t.Fatal("no rewrite")
	}
	if res.AST.Def.Name != "cb_small" {
		t.Fatalf("cost-based choice: got %s", res.AST.Def.Name)
	}
	if diff := exec.EqualResults(origRes, mustRun(t, e, g)); diff != "" {
		t.Fatal(diff)
	}
}

// TestCostBasedRefusesUnprofitableAST: an AST as large as the base table
// offers no gain; the router declines even though a match exists.
func TestCostBasedRefusesUnprofitableAST(t *testing.T) {
	e := newEnv(t, 1000)
	wide := e.registerAST(t, "cb_only_wide", `
		select tid, faid, flid, date, qty, price, disc, fpgid from trans`)

	sql := "select tid, qty from trans where qty > 2"
	// A plain match exists...
	g1, _ := qgm.BuildSQL(sql, e.cat)
	if e.rw.Rewrite(g1, wide) == nil {
		t.Fatal("plain rewrite should match")
	}
	// ...but the cost-based router refuses (AST rows == base rows).
	g2, _ := qgm.BuildSQL(sql, e.cat)
	if res := e.rw.RewriteBestCostCtx(context.Background(), g2, []*core.CompiledAST{wide}, e.store); res != nil {
		t.Fatalf("unprofitable rewrite accepted: %s", g2.SQL())
	}
}

// TestCostBasedCountsRejoins: an AST that forces an expensive rejoin gets
// charged for it.
func TestCostBasedCountsRejoins(t *testing.T) {
	e := newEnv(t, 1500)
	agg := e.registerAST(t, "cb_rejoin", `
		select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)`)
	sql := `select state, year(date) as year, count(*) as cnt
	        from trans, loc where flid = lid
	        group by state, year(date)`
	orig, _ := qgm.BuildSQL(sql, e.cat)
	origRes := mustRun(t, e, orig)

	g, _ := qgm.BuildSQL(sql, e.cat)
	res := e.rw.RewriteBestCostCtx(context.Background(), g, []*core.CompiledAST{agg}, e.store)
	if res == nil {
		t.Fatal("profitable rejoin rewrite refused")
	}
	if diff := exec.EqualResults(origRes, mustRun(t, e, g)); diff != "" {
		t.Fatal(diff)
	}
}
