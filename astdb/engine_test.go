package astdb_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
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
// QueryGraph is the uncached engine's route.
func TestFallbackMarksEveryTableStale(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("storage.scan:st_acct_spend", faultinject.Err("storage.scan:st_acct_spend"))
	ctx := context.Background()
	sql := suiteSQL(t, "ds7")
	for name, opts := range map[string][]astdb.Option{"cached": nil, "uncached": {astdb.WithPlanCache(-1)}} {
		db := benchmarkSetEnv(t).DB(opts...)
		base, err := qgm.BuildSQL(sql, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Execute(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: query must degrade, got error: %v", name, err)
		}
		if !ans.FellBack {
			t.Fatalf("%s: expected a fallback answer, got %+v", name, ans)
		}
		if diff := exec.EqualResults(want, ans.Result()); diff != "" {
			t.Fatalf("%s: fallback rows differ from the base plan: %s", name, diff)
		}
		if !db.Catalog().Status("st_acct_spend").Stale {
			t.Fatalf("%s: the table that failed the plan is not stale", name)
		}
		next, err := db.Query(ctx, sql)
		if err != nil || next.FellBack || slices.Contains(next.ASTs, "st_acct_spend") {
			t.Fatalf("%s: next query: err=%v, answer %+v", name, err, next)
		}
	}
}

// TestDegradationEventsAreSequenced verifies the facade surfaces sequenced
// degradation events: a match panic (injected fault) is recorded with a
// monotonic sequence number shared with the observer's event stream.
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
	events, dropped := db.DegradationEvents()
	if dropped != 0 || len(events) == 0 {
		t.Fatalf("expected degradation events, got %d (dropped %d)", len(events), dropped)
	}
	var last uint64
	for _, ev := range events {
		if ev.Seq <= last {
			t.Fatalf("sequence numbers not monotonic: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if !strings.Contains(ev.Err.Error(), "injected match fault") {
			t.Fatalf("unexpected degradation: %v", ev.Err)
		}
	}
	// The same sequence numbers appear in the observer's event stream.
	snap := o.Snapshot()
	found := false
	for _, ev := range snap.Events {
		if ev.Kind == "core.degraded" && ev.Seq == events[0].Seq {
			found = true
		}
	}
	if !found {
		t.Errorf("observer event stream missing degradation seq %d: %+v", events[0].Seq, snap.Events)
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
	if stats, err := db.Refresh(ctx, "byregion"); err != nil || len(stats) != 1 {
		t.Fatalf(`Refresh("byregion") = %+v, %v; want one clean refresh`, stats, err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Refresh(canceled, "nosuch"); !errors.Is(err, astdb.ErrUnknownTable) {
		t.Fatalf("unknown name on a canceled context: %v; want ErrUnknownTable before the writer slot", err)
	}
}

// TestRewriteRejectsUnknownSummaryTable: restricting the candidates to a name
// that is not registered used to plan silently with no candidates at all.
func TestRewriteRejectsUnknownSummaryTable(t *testing.T) {
	db := openTinyDB(t)
	ctx := context.Background()
	if _, _, err := db.CreateSummaryTable(ctx, "byregion",
		"select region, sum(amount) as total, count(*) as cnt from sales group by region"); err != nil {
		t.Fatal(err)
	}
	q := "select region, sum(amount) as total from sales group by region"
	if rw, err := db.Rewrite(ctx, q, "byregion"); err != nil || strings.Join(rw.ASTs, ",") != "byregion" {
		t.Fatalf(`Rewrite(only "byregion") = %+v, %v`, rw, err)
	}
	rw, err := db.Rewrite(ctx, q, "nosuch")
	if !errors.Is(err, astdb.ErrUnknownTable) || !strings.Contains(err.Error(), `"nosuch"`) || rw != nil {
		t.Fatalf(`Rewrite(only "nosuch") = %+v, %v; want ErrUnknownTable naming nosuch`, rw, err)
	}
	// Decided before planning: not even a statement that does not parse gets
	// that far.
	if _, err := db.Rewrite(ctx, "select from", "nosuch"); !errors.Is(err, astdb.ErrUnknownTable) {
		t.Fatalf("unknown name with an unparsable statement: %v; want ErrUnknownTable", err)
	}
}
