package maintain

// Failure-path coverage for maintenance: injected refresh faults must
// degrade per AST — incremental failures fall back to full recomputation,
// full-recompute failures mark the AST stale (feeding the quarantine
// breaker) without stopping other ASTs, and a later successful recompute
// restores the AST to service.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// newTrackedFixture is newFixture with the maintainer wired to the catalog.
func newTrackedFixture(t testing.TB, n int) *fixture {
	f := newFixture(t, n)
	f.m.WithCatalog(f.cat)
	return f
}

func TestIncrementalFailureFallsBackToFull(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 1000)
	ca := f.compile(t, "incfail", `
		select flid, year(date) as y, count(*) as c, sum(qty) as s
		from trans group by flid, year(date)`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("not incremental: %s", plan.Reason)
	}
	faultinject.Set("maintain.incremental:incfail", faultinject.Err("maintain.incremental:incfail"))

	rows := randTransRows(f, rand.New(rand.NewSource(9)), 50)
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows)
	if err != nil {
		t.Fatalf("fallback should absorb the incremental failure: %v", err)
	}
	if len(stats) != 1 || stats[0].Strategy != FullRecompute || stats[0].Err != nil {
		t.Fatalf("stats: %+v", stats)
	}
	checkAgainstRecompute(t, f, ca)
	if st := f.cat.Status("incfail"); st.Stale || st.Epoch == 0 {
		t.Fatalf("fallback refresh should leave the AST fresh: %+v", st)
	}
}

func TestIncrementalPanicFallsBackToFull(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 1000)
	ca := f.compile(t, "incpanic", `
		select flid, count(*) as c from trans group by flid`)
	plan := f.m.Analyze(ca)
	faultinject.Set("maintain.incremental:incpanic", faultinject.Fault{Panic: "refresh panic"})

	rows := randTransRows(f, rand.New(rand.NewSource(10)), 40)
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows)
	if err != nil {
		t.Fatalf("panic should be recovered into the full fallback: %v", err)
	}
	if stats[0].Strategy != FullRecompute {
		t.Fatalf("stats: %+v", stats)
	}
	checkAgainstRecompute(t, f, ca)
	// The base insert must have landed exactly once.
	if got := f.store.MustTable("trans").Cardinality(); got != 1040 {
		t.Fatalf("trans has %d rows, want 1040", got)
	}
}

func TestFullFailureContinuesAndMarksStale(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 800)
	// Both ASTs need full recomputation (DISTINCT aggregates); only one is
	// broken — the other must still refresh.
	bad := f.compile(t, "fullbad", `select flid, count(distinct faid) as c from trans group by flid`)
	good := f.compile(t, "fullgood", `select flid, count(distinct faid) as c from trans group by flid`)
	pBad, pGood := f.m.Analyze(bad), f.m.Analyze(good)
	faultinject.Set("maintain.full:fullbad", faultinject.Err("maintain.full:fullbad"))

	rows := randTransRows(f, rand.New(rand.NewSource(11)), 30)
	stats, err := f.m.ApplyInsert([]*Plan{pBad, pGood}, "trans", rows)
	if err == nil {
		t.Fatal("expected a joined error for the failed full refresh")
	}
	if len(stats) != 2 {
		t.Fatalf("stats for both ASTs expected, got %d", len(stats))
	}
	if stats[0].AST != "fullbad" || stats[0].Err == nil {
		t.Fatalf("failed AST not recorded: %+v", stats[0])
	}
	if stats[1].AST != "fullgood" || stats[1].Err != nil {
		t.Fatalf("later AST was not refreshed: %+v", stats[1])
	}
	checkAgainstRecompute(t, f, good)

	if st := f.cat.Status("fullbad"); !st.Stale || st.Failures != 1 {
		t.Fatalf("failed AST should be stale with one failure: %+v", st)
	}
	if st := f.cat.Status("fullgood"); st.Stale || st.Epoch != 1 {
		t.Fatalf("good AST should be fresh: %+v", st)
	}
}

func TestQuarantineAndRecovery(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 800)
	ca := f.compile(t, "quaast", `select flid, count(distinct faid) as c from trans group by flid`)
	plan := f.m.Analyze(ca)
	faultinject.Set("maintain.full:quaast", faultinject.Fault{Err: errors.New("disk on fire"), Times: catalog.DefaultQuarantineThreshold})

	rng := rand.New(rand.NewSource(12))
	// Three failed refreshes trip the breaker.
	for i := 0; i < catalog.DefaultQuarantineThreshold; i++ {
		if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", randTransRows(f, rng, 10)); err == nil {
			t.Fatalf("refresh %d should fail", i)
		}
	}
	st := f.cat.Status("quaast")
	if !st.Quarantined || st.Failures != catalog.DefaultQuarantineThreshold {
		t.Fatalf("breaker did not trip: %+v", st)
	}

	// The rewriter refuses the quarantined AST even with AllowStale.
	sql := "select flid, count(distinct faid) as c from trans group by flid"
	g, err := qgm.BuildSQL(sql, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	if res := f.rw.Rewrite(g, ca); res != nil {
		t.Fatal("rewriter used a quarantined AST")
	}

	// The injected fault is exhausted: a successful full
	// recompute un-quarantines and the AST serves queries again.
	if _, err := f.m.RefreshFull(plan); err != nil {
		t.Fatalf("recovery recompute failed: %v", err)
	}
	st = f.cat.Status("quaast")
	if st.Quarantined || st.Stale || st.Failures != 0 {
		t.Fatalf("recovery did not clear the breaker: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)
	g2, _ := qgm.BuildSQL(sql, f.cat)
	if res := f.rw.Rewrite(g2, ca); res == nil {
		t.Fatal("recovered AST should serve rewrites again")
	}
}

func TestStaleASTRecoversByFullRecomputeNotIncremental(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 800)
	ca := f.compile(t, "staleres", `
		select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	plan := f.m.Analyze(ca)
	if plan.Strategy != Incremental {
		t.Fatalf("not incremental: %s", plan.Reason)
	}

	// Batch 1: both the incremental merge and the full fallback fail, leaving
	// the materialization stale and missing this batch's delta.
	faultinject.Set("maintain.incremental:staleres", faultinject.Fault{Err: errors.New("inc down"), Times: 1})
	faultinject.Set("maintain.full:staleres", faultinject.Fault{Err: errors.New("full down"), Times: 1})
	rng := rand.New(rand.NewSource(14))
	if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", randTransRows(f, rng, 20)); err == nil {
		t.Fatal("batch 1 refresh should fail")
	}
	if st := f.cat.Status("staleres"); !st.Stale {
		t.Fatalf("AST should be stale after the failed batch: %+v", st)
	}

	// Batch 2 succeeds. An incremental merge here would fold only batch 2's
	// delta into contents still missing batch 1 and then mark the AST fresh —
	// resurrecting wrong data. Recovery must be a full recompute.
	stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", randTransRows(f, rng, 20))
	if err != nil {
		t.Fatalf("batch 2 refresh failed: %v", err)
	}
	if len(stats) != 1 || stats[0].Strategy != FullRecompute {
		t.Fatalf("stale AST must recover via full recompute, got %+v", stats)
	}
	if st := f.cat.Status("staleres"); st.Stale || st.Quarantined {
		t.Fatalf("recovery recompute should leave the AST fresh: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)

	// Once fresh again, later batches go back to the incremental path.
	stats, err = f.m.ApplyInsert([]*Plan{plan}, "trans", randTransRows(f, rng, 20))
	if err != nil {
		t.Fatalf("batch 3 refresh failed: %v", err)
	}
	if stats[0].Strategy != Incremental {
		t.Fatalf("fresh AST should refresh incrementally again: %+v", stats)
	}
	checkAgainstRecompute(t, f, ca)
}

func TestStaleASTNeverReadWithoutAllowStale(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	f := newTrackedFixture(t, 800)
	ca := f.compile(t, "staleread", `select flid, count(distinct faid) as c from trans group by flid`)
	plan := f.m.Analyze(ca)
	faultinject.Set("maintain.full:staleread", faultinject.Err("maintain.full:staleread"))

	sql := "select flid, count(distinct faid) as c from trans group by flid"
	g, err := qgm.BuildSQL(sql, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	asts := []*core.CompiledAST{ca}
	if _, res := f.rw.RewriteOrFallback(context.Background(), g, asts, f.store); res == nil {
		t.Fatal("the fresh AST should serve the query")
	}
	rows := randTransRows(f, rand.New(rand.NewSource(13)), 25)
	if _, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows); err == nil {
		t.Fatal("refresh should fail")
	}
	// The materialization is now deliberately stale (base advanced, AST did
	// not). With AllowStale=false the rewriter must not touch it.
	if _, res := f.rw.RewriteOrFallback(context.Background(), g, asts, f.store); res != nil {
		t.Fatal("stale AST was read with AllowStale=false")
	}
}

func TestRefreshFullDirectRecovery(t *testing.T) {
	f := newTrackedFixture(t, 500)
	ca := f.compile(t, "direct", `select flid, count(*) as c from trans group by flid`)
	plan := f.m.Analyze(ca)
	f.store.Apply(f.cat.Stale("direct"))
	st, err := f.m.RefreshFull(plan)
	if err != nil || st.Err != nil {
		t.Fatalf("RefreshFull failed: %v / %+v", err, st)
	}
	if got := f.cat.Status("direct"); got.Stale || got.Epoch != 1 {
		t.Fatalf("status after RefreshFull: %+v", got)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestInsertBatchIsAllOrNothing: arity and every cell's column check are done
// for the whole batch before any merge is prepared or any row appended, so a
// batch whose last row is short, or carries a value its column refuses,
// changes neither the base table nor a summary table — the same *TableData
// holds the same published chunks — and staleness is not how the caller finds
// out.
func TestInsertBatchIsAllOrNothing(t *testing.T) {
	f := newTrackedFixture(t, 600)
	ca := f.compile(t, "allornone", `select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	plan := f.m.Analyze(ca)
	before := f.store.MustTable("allornone")
	beforeChunks, _ := before.SnapshotChunks()

	for name, spoil := range map[string]func([]sqltypes.Value) []sqltypes.Value{
		"short last row":       func(r []sqltypes.Value) []sqltypes.Value { return r[:3] },
		"NULL qty in last row": func(r []sqltypes.Value) []sqltypes.Value { r[5] = sqltypes.Null; return r },
		"string faid":          func(r []sqltypes.Value) []sqltypes.Value { r[1] = sqltypes.NewString("x"); return r },
	} {
		rows := randTransRows(f, rand.New(rand.NewSource(15)), 10)
		rows[9] = spoil(rows[9])
		stats, err := f.m.ApplyInsert([]*Plan{plan}, "trans", rows)
		if err == nil || stats != nil {
			t.Fatalf("%s: stats=%+v err=%v, want nil and an error", name, stats, err)
		}
		if got := f.store.MustTable("trans").Cardinality(); got != 600 {
			t.Fatalf("%s: trans has %d rows, want 600: part of the batch was inserted", name, got)
		}
		after := f.store.MustTable("allornone")
		afterChunks, _ := after.SnapshotChunks()
		if after != before || len(afterChunks) == 0 || &afterChunks[0] != &beforeChunks[0] {
			t.Fatalf("%s: the summary table was republished by a rejected batch", name)
		}
	}
	if st := f.cat.Status("allornone"); st.Stale || st.Quarantined || st.Epoch != 0 {
		t.Fatalf("a rejected batch changed the AST's status: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)
}
