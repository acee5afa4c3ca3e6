package astdb_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// openTinyDB builds a fresh engine with one two-column fact table through the
// public facade only.
func openTinyDB(t *testing.T, opts ...astdb.Option) *astdb.Engine {
	t.Helper()
	db, err := astdb.Open(catalog.New(), opts...)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := db.CreateTable(&catalog.Table{
		Name: "sales",
		Columns: []catalog.Column{
			{Name: "region", Type: sqltypes.KindString},
			{Name: "amount", Type: sqltypes.KindInt},
		},
	}); err != nil {
		t.Fatalf("create table: %v", err)
	}
	rows := [][]sqltypes.Value{
		{sqltypes.NewString("west"), sqltypes.NewInt(10)},
		{sqltypes.NewString("west"), sqltypes.NewInt(5)},
		{sqltypes.NewString("east"), sqltypes.NewInt(7)},
	}
	if _, err := db.Insert(context.Background(), "sales", rows); err != nil {
		t.Fatalf("insert: %v", err)
	}
	return db
}

func TestEngineLifecycle(t *testing.T) {
	db := openTinyDB(t, astdb.WithObserver(obs.New()))
	ctx := context.Background()

	ca, n, err := db.CreateSummaryTable(ctx, "byregion",
		"select region, sum(amount) as total, count(*) as cnt from sales group by region")
	if err != nil {
		t.Fatalf("create summary table: %v", err)
	}
	if n != 2 || ca.Def.Name != "byregion" {
		t.Fatalf("materialized %d rows for %q, want 2 for byregion", n, ca.Def.Name)
	}
	if got := len(db.ASTs()); got != 1 {
		t.Fatalf("ASTs() = %d entries, want 1", got)
	}

	// First query: cache miss, served from the summary table.
	q := "select region, sum(amount) as total from sales group by region"
	ans, err := db.Query(ctx, q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if strings.Join(ans.ASTs, ",") != "byregion" || ans.CacheHit {
		t.Fatalf("first query: ast=%q hit=%t, want byregion/miss", strings.Join(ans.ASTs, ","), ans.CacheHit)
	}
	if len(ans.Rows()) != 2 {
		t.Fatalf("query returned %d rows, want 2", len(ans.Rows()))
	}
	// Second query: plan-cache hit.
	ans2, err := db.Query(ctx, q)
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if strings.Join(ans2.ASTs, ",") != "byregion" || !ans2.CacheHit {
		t.Fatalf("repeat query: ast=%q hit=%t, want byregion/hit", strings.Join(ans2.ASTs, ","), ans2.CacheHit)
	}

	// Insert flows through maintenance and keeps the summary table fresh.
	stats, err := db.Insert(ctx, "sales", [][]sqltypes.Value{
		{sqltypes.NewString("east"), sqltypes.NewInt(3)},
	})
	if err != nil {
		t.Fatalf("maintained insert: %v", err)
	}
	if len(stats) != 1 || stats[0].Err != nil {
		t.Fatalf("insert stats = %+v, want one clean refresh", stats)
	}
	ans3, err := db.Query(ctx, q)
	if err != nil {
		t.Fatalf("post-insert query: %v", err)
	}
	// The refresh left the table usable, so the cached plan still stands (the
	// key carries the usable set, not the refresh epoch) — and it reads the
	// refreshed table.
	if !ans3.CacheHit || strings.Join(ans3.ASTs, ",") != "byregion" {
		t.Fatalf("post-insert query: ast=%q hit=%t, want byregion/hit: a refresh flushed the plan", strings.Join(ans3.ASTs, ","), ans3.CacheHit)
	}
	astdb.SortRows(ans3.Rows())
	// east total must now be 10.
	found := false
	for _, r := range ans3.Rows() {
		if r[0].String() == "east" && r[1].String() == "10" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-insert totals wrong: %v", ans3.Rows())
	}

	// A malformed row is a hard error before any maintenance runs.
	if _, err := db.Insert(ctx, "sales", [][]sqltypes.Value{{sqltypes.NewInt(1)}}); err == nil {
		t.Fatal("arity-mismatched insert must fail")
	}
	if st := db.Catalog().Status("byregion"); st.Stale {
		t.Fatal("rejected insert must not mark the summary table stale")
	}

	// Refresh recomputes and reports.
	rstats, err := db.Refresh(ctx)
	if err != nil || len(rstats) != 1 {
		t.Fatalf("refresh: stats=%+v err=%v", rstats, err)
	}

	// The snapshot saw the whole pipeline.
	snap := db.Snapshot()
	if snap.Counters["core.plancache.hits"] < 1 || snap.Counters["exec.runs"] < 3 {
		t.Errorf("snapshot missing pipeline counters: %v", snap.Counters)
	}
}

// TestQueryFallsBackWhenRewrittenPlanFails injects a fault into the rewritten
// plan's execution and requires the facade to answer from base tables, mark
// the summary table stale, and surface the degradation — never the failure.
func TestQueryFallsBackWhenRewrittenPlanFails(t *testing.T) {
	db := openTinyDB(t)
	ctx := context.Background()
	if _, _, err := db.CreateSummaryTable(ctx, "byregion",
		"select region, sum(amount) as total, count(*) as cnt from sales group by region"); err != nil {
		t.Fatal(err)
	}
	// Drop the materialized table behind the engine's back: the rewritten
	// plan now fails at scan time.
	db.Store().Drop("byregion")

	q := "select region, sum(amount) as total from sales group by region"
	ans, err := db.Query(ctx, q)
	if err != nil {
		t.Fatalf("query must degrade, got error: %v", err)
	}
	if !ans.FellBack {
		t.Fatalf("expected fallback answer, got %+v", ans)
	}
	if len(ans.Rows()) != 2 {
		t.Fatalf("fallback returned %d rows, want 2", len(ans.Rows()))
	}
	if st := db.Catalog().Status("byregion"); !st.Stale {
		t.Error("failed summary table must be marked stale")
	}
}

// TestFallbackMarksEveryTableStale: ds7 reads ast7 for its main block and
// st_acct_spend for its scalar subquery. When the second table cannot be read,
// the query answers from base tables and st_acct_spend goes stale — not only
// the plan's first table, or the next miss would plan onto the faulty table
// again. With the fault still armed, the next query is served without it.
func TestFallbackMarksEveryTableStale(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("storage.scan:st_acct_spend", faultinject.Err("storage.scan:st_acct_spend"))
	ctx := context.Background()
	sql := suiteSQL(t, "ds7")
	db := benchmarkSetEnv(t).DB()
	want := baseResult(t, db, sql)
	ans, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatalf("query must degrade, got error: %v", err)
	}
	if !ans.FellBack {
		t.Fatalf("expected a fallback answer, got %+v", ans)
	}
	if diff := exec.EqualResults(want, ans.Result()); diff != "" {
		t.Fatalf("fallback rows differ from the base plan: %s", diff)
	}
	if !db.Catalog().Status("st_acct_spend").Stale {
		t.Fatal("the table that failed the plan is not stale")
	}
	next, err := db.Query(ctx, sql)
	if err != nil || next.FellBack || slices.Contains(next.ASTs, "st_acct_spend") {
		t.Fatalf("next query: err=%v, answer %+v", err, next)
	}
}

// baseResult runs sql on the engine's base tables, unrewritten: the reference
// a served answer must equal.
func baseResult(t *testing.T, db *astdb.Engine, sql string) *exec.Result {
	t.Helper()
	g, err := qgm.BuildSQL(sql, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.NewEngine(db.Store()).RunCtx(context.Background(), g, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDegradationEventsAreSequenced: a degradation (an injected match fault) is
// recorded once, on the observer — one core.degraded event per
// core.degradations count, on the observer's monotonic sequence.
func TestDegradationEventsAreSequenced(t *testing.T) {
	o := obs.New()
	db := openTinyDB(t, astdb.WithObserver(o))
	ctx := context.Background()
	if _, _, err := db.CreateSummaryTable(ctx, "byregion",
		"select region, sum(amount) as total, count(*) as cnt from sales group by region"); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("core.match:byregion", faultinject.Fault{Err: errors.New("injected match fault")})

	if _, err := db.Query(ctx, "select region, sum(amount) as total from sales group by region"); err != nil {
		t.Fatalf("query must degrade to base tables: %v", err)
	}
	snap := o.Snapshot()
	var last uint64
	degraded := 0
	for _, ev := range snap.Events {
		if ev.Seq <= last {
			t.Fatalf("sequence numbers not monotonic: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if ev.Kind != "core.degraded" {
			continue
		}
		degraded++
		if !strings.Contains(ev.Detail, "injected match fault") {
			t.Fatalf("unexpected degradation: %s", ev.Detail)
		}
	}
	if degraded == 0 || int64(degraded) != snap.Counters[core.CtrDegradations] {
		t.Fatalf("%d core.degraded events, %s = %d; want as many, at least one",
			degraded, core.CtrDegradations, snap.Counters[core.CtrDegradations])
	}
}

// TestDegradationOutlivesRoutineWrites: a degradation's event is its only
// detailed record, and the observer keeps a bounded log of events, so routine
// maintenance must not crowd it out: one degradation, then 2,000 one-row
// inserts that refresh five summary tables each, and the core.degraded event
// is still there. Each refresh is counted under catalog.ast.fresh.
func TestDegradationOutlivesRoutineWrites(t *testing.T) {
	o := obs.New()
	db := openTinyDB(t, astdb.WithObserver(o))
	ctx := context.Background()
	for i := range 5 {
		if _, _, err := db.CreateSummaryTable(ctx, fmt.Sprintf("byregion%d", i), fmt.Sprintf(
			"select region, sum(amount) as total, count(*) as cnt from sales where amount > %d group by region", i)); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(1)
	faultinject.Set("core.match:byregion0", faultinject.Fault{Err: errors.New("injected match fault")})
	_, err := db.Query(ctx, "select region, sum(amount) as total from sales where amount > 0 group by region")
	faultinject.Disable()
	if err != nil {
		t.Fatalf("query must degrade: %v", err)
	}
	fresh := o.Snapshot().Counters["catalog.ast.fresh"]
	for i := range 2000 {
		if _, err := db.Insert(ctx, "sales", [][]sqltypes.Value{{sqltypes.NewString("west"), sqltypes.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	if got := snap.Counters["catalog.ast.fresh"] - fresh; got != 5*2000 {
		t.Fatalf("catalog.ast.fresh counted %d refreshes, want %d", got, 5*2000)
	}
	if !slices.ContainsFunc(snap.Events, func(ev obs.Event) bool { return ev.Kind == "core.degraded" }) {
		t.Fatalf("the core.degraded event is gone from the %d events kept (%s = %d)", len(snap.Events), core.CtrDegradations, snap.Counters[core.CtrDegradations])
	}
}

// TestRefreshRejectsUnknownSummaryTable: a name that matches no registered
// summary table used to refresh nothing and report success. It is an error
// naming the table, decided before the call waits for the writer slot (so a
// canceled context does not mask it).
func TestRefreshRejectsUnknownSummaryTable(t *testing.T) {
	db := openTinyDB(t)
	ctx := context.Background()
	if _, _, err := db.CreateSummaryTable(ctx, "byregion",
		"select region, sum(amount) as total, count(*) as cnt from sales group by region"); err != nil {
		t.Fatal(err)
	}
	stats, err := db.Refresh(ctx, "byregion", "nosuch")
	if !errors.Is(err, astdb.ErrUnknownTable) || !strings.Contains(err.Error(), `"nosuch"`) || len(stats) != 0 {
		t.Fatalf(`Refresh("byregion", "nosuch") = %+v, %v; want no stats and ErrUnknownTable naming nosuch`, stats, err)
	}
	// Names fold case, as they do in the catalog, the store and DML.
	for _, name := range []string{"byregion", "ByRegion"} {
		if stats, err := db.Refresh(ctx, name); err != nil || len(stats) != 1 {
			t.Fatalf(`Refresh(%q) = %+v, %v; want one clean refresh`, name, stats, err)
		}
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Refresh(canceled, "nosuch"); !errors.Is(err, astdb.ErrUnknownTable) {
		t.Fatalf("unknown name on a canceled context: %v; want ErrUnknownTable before the writer slot", err)
	}
}
