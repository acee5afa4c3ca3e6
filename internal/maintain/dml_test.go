package maintain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/parser"
	"repro/internal/qgm"
)

func buildDelete(t testing.TB, f *fixture, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	dml, err := qgm.BuildDelete(stmt.(*parser.DeleteStmt), f.cat)
	if err != nil {
		t.Fatal(err)
	}
	return dml
}

func buildUpdate(t testing.TB, f *fixture, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	dml, err := qgm.BuildUpdate(stmt.(*parser.UpdateStmt), f.cat)
	if err != nil {
		t.Fatal(err)
	}
	return dml
}

func TestAnalyzeDeleteRouting(t *testing.T) {
	f := newFixture(t, 500)
	cases := []struct {
		sql    string
		want   Strategy
		reason string // substring of the full-recompute reason
	}{
		{`select flid, count(*) as c, sum(qty) as s from trans group by flid`,
			Incremental, ""},
		{`select flid, count(qty) as c, sum(qty) as s from trans group by flid`,
			Incremental, ""}, // count(non-nullable) counts rows, so it is a tracker
		{`select flid, sum(qty) as s from trans group by flid`,
			FullRecompute, "tracker"},
		{`select flid, count(*) as c, min(price) as mn from trans group by flid`,
			Incremental, ""}, // MIN handled by scoped recompute
		{`select flid, year(date) as y, count(*) as c, max(price) as mx
		  from trans group by rollup(flid, year(date))`,
			FullRecompute, "supergroup"},
		{`select flid, year(date) as y, count(*) as c, sum(qty) as s
		  from trans group by rollup(flid, year(date))`,
			Incremental, ""}, // subtractable aggregates retire cuboid groups too
	}
	for i, c := range cases {
		ca := f.compile(t, fmt.Sprintf("dr%d", i), c.sql)
		p := f.m.Analyze(ca)
		got, reason := p.DeleteRouting("trans")
		if got != c.want {
			t.Errorf("case %d (%s): delete routing %v (reason %q), want %v", i, c.sql, got, reason, c.want)
		}
		if c.reason != "" && !strings.Contains(reason, c.reason) {
			t.Errorf("case %d: reason %q does not mention %q", i, reason, c.reason)
		}
	}
}

// TestSelfJoinForcesFullRouting: the single-table overlay delta computes only
// ΔR⋈ΔR for a self-joined table, so both insert and delete maintenance must
// route to full recomputation — and the results must still match a fresh
// evaluation end to end.
func TestSelfJoinForcesFullRouting(t *testing.T) {
	f := newFixture(t, 800)
	ca := f.compile(t, "selfj", `
		select a.flid as flid, count(*) as c
		from trans a, trans b
		where a.faid = b.faid
		group by a.flid`)
	p := f.m.Analyze(ca)
	if s, reason := p.InsertRouting("trans"); s != FullRecompute || !strings.Contains(reason, "more than once") {
		t.Fatalf("insert routing for self-join: %v (%q), want full", s, reason)
	}
	if s, _ := p.DeleteRouting("trans"); s != FullRecompute {
		t.Fatalf("delete routing for self-join must be full")
	}

	rows := randTransRows(f, rand.New(rand.NewSource(8)), 40)
	stats, err := f.m.ApplyInsert([]*Plan{p}, "trans", rows)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Strategy != FullRecompute {
		t.Fatalf("insert used %v, want full: %+v", stats[0].Strategy, stats[0])
	}
	checkAgainstRecompute(t, f, ca)

	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 2`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || stats[0].Strategy != FullRecompute {
		t.Fatalf("delete: n=%d stats=%+v", n, stats)
	}
	checkAgainstRecompute(t, f, ca)
}

func TestApplyDeleteRetirement(t *testing.T) {
	f := newFixture(t, 1500)
	ca := f.compile(t, "delret", `
		select fpgid, count(*) as c, sum(qty) as s from trans group by fpgid`)
	p := f.m.Analyze(ca)
	if s, reason := p.DeleteRouting("trans"); s != Incremental {
		t.Fatalf("want incremental delete routing: %s", reason)
	}

	// Deleting every row of one group must retire it.
	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where fpgid = 3`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("predicate matched nothing")
	}
	if stats[0].Strategy != Incremental || stats[0].Retired != 1 {
		t.Fatalf("want 1 retired group via incremental path: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)

	// A partial delete subtracts in place.
	_, stats, err = f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 5`))
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Merged == 0 {
		t.Fatalf("partial delete should merge surviving groups: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)

	// A WHERE-less DELETE retires everything.
	n, stats, err = f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || f.store.MustTable("trans").Cardinality() != 0 {
		t.Fatalf("full delete left %d base rows", f.store.MustTable("trans").Cardinality())
	}
	if got := f.store.MustTable("delret").Cardinality(); got != 0 {
		t.Fatalf("all groups should be retired, %d remain", got)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestDeleteScopedRecompute: MIN/MAX columns of surviving groups are restored
// by a group-scoped recomputation, and the rest of the row (COUNT, SUM) is
// still maintained by subtraction.
func TestDeleteScopedRecompute(t *testing.T) {
	f := newFixture(t, 1500)
	ca := f.compile(t, "delscope", `
		select flid, count(*) as c, sum(qty) as s, min(price) as mn, max(price) as mx
		from trans group by flid`)
	p := f.m.Analyze(ca)
	if s, reason := p.DeleteRouting("trans"); s != Incremental {
		t.Fatalf("want incremental delete routing: %s", reason)
	}
	if len(p.scopedCols) != 2 {
		t.Fatalf("min and max should be scoped columns: %v", p.scopedCols)
	}

	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 3 and flid <= 40`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("predicate matched nothing")
	}
	if stats[0].Strategy != Incremental || stats[0].Scoped == 0 {
		t.Fatalf("want scope-recomputed groups on the incremental path: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)
}

// TestScopedRecomputeCap: past maxScopedGroups affected groups the injected
// OR-of-keys predicate is worse than recomputing everything, so the scoped
// path refuses and the caller falls back to full.
func TestScopedRecomputeCap(t *testing.T) {
	f := newFixture(t, 300)
	ca := f.compile(t, "capast", `
		select flid, count(*) as c, min(price) as mn from trans group by flid`)
	p := f.m.Analyze(ca)
	pm := &pendingMerge{scoped: map[string]int{}}
	for i := 0; i <= maxScopedGroups; i++ {
		pm.scoped[fmt.Sprint(i)] = i
	}
	if err := f.m.scopedRecompute(p, pm); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("want cap error, got %v", err)
	}
}

func TestApplyUpdateGroupMigration(t *testing.T) {
	f := newFixture(t, 1500)
	ca := f.compile(t, "updmig", `
		select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	p := f.m.Analyze(ca)

	// Moving every row out of group 7 retires it; group 5 absorbs the rows.
	n, stats, err := f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update trans set flid = 5 where flid = 7`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("predicate matched nothing")
	}
	if stats[0].Strategy != Incremental || stats[0].Retired != 1 {
		t.Fatalf("want group 7 retired on the incremental path: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)

	// A value update changes aggregates without moving rows between groups.
	_, stats, err = f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update trans set qty = qty + 1 where tid <= 200`))
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Strategy != Incremental {
		t.Fatalf("stats: %+v", stats[0])
	}
	checkAgainstRecompute(t, f, ca)

	// No matching rows: nothing happens, no per-AST work.
	n, stats, err = f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update trans set qty = 1 where tid < 0`))
	if err != nil || n != 0 || len(stats) != 0 {
		t.Fatalf("no-op update: n=%d stats=%+v err=%v", n, stats, err)
	}
}

// TestUpdateNullIntoNotNullAborts: a statement-level error surfaces before
// any mutation — the base table and every AST stay exactly as they were.
func TestUpdateNullIntoNotNullAborts(t *testing.T) {
	f := newFixture(t, 500)
	ca := f.compile(t, "updnn", `
		select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	p := f.m.Analyze(ca)
	before := f.store.MustTable("trans").Cardinality()

	n, stats, err := f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update trans set qty = null where tid = 1`))
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("want NOT NULL error, got %v", err)
	}
	if n != 0 || len(stats) != 0 {
		t.Fatalf("aborted update did work: n=%d stats=%+v", n, stats)
	}
	if got := f.store.MustTable("trans").Cardinality(); got != before {
		t.Fatalf("base table mutated by aborted update: %d -> %d", before, got)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestDeleteFaultFallsBackToFull: an injected fault at the delete-delta site
// degrades that refresh to a full recompute; the AST ends fresh and correct.
func TestDeleteFaultFallsBackToFull(t *testing.T) {
	f := newFixture(t, 1000)
	f.m = New(f.store).WithCatalog(f.cat)
	ca := f.compile(t, "fdel", `
		select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	p := f.m.Analyze(ca)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("maintain.delete", faultinject.Err("maintain.delete"))

	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 2`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || stats[0].Strategy != FullRecompute {
		t.Fatalf("faulted delete should fall back to full: n=%d stats=%+v", n, stats)
	}
	if st := f.cat.Status("fdel"); st.Stale || st.Quarantined {
		t.Fatalf("full fallback succeeded; AST should be fresh: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestUpdateFaultPanicFallsBackToFull: the delta path recovers injected
// panics, not just errors.
func TestUpdateFaultPanicFallsBackToFull(t *testing.T) {
	f := newFixture(t, 1000)
	f.m = New(f.store).WithCatalog(f.cat)
	ca := f.compile(t, "fupd", `
		select fpgid, count(*) as c, sum(qty) as s from trans group by fpgid`)
	p := f.m.Analyze(ca)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("maintain.update", faultinject.Fault{Panic: "dml: update delta panic"})

	n, stats, err := f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update trans set fpgid = 1 where fpgid = 2`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || stats[0].Strategy != FullRecompute {
		t.Fatalf("faulted update should fall back to full: n=%d stats=%+v", n, stats)
	}
	if st := f.cat.Status("fupd"); st.Stale || st.Quarantined {
		t.Fatalf("AST should be fresh after fallback: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestScopedFaultFallsBackToFull: a fault between merge and scoped recompute
// abandons the prepared merge — nothing half-finished is ever published.
func TestScopedFaultFallsBackToFull(t *testing.T) {
	f := newFixture(t, 1500)
	f.m = New(f.store).WithCatalog(f.cat)
	ca := f.compile(t, "fscope", `
		select flid, count(*) as c, min(price) as mn from trans group by flid`)
	p := f.m.Analyze(ca)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("maintain.scoped", faultinject.Err("maintain.scoped"))

	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 3 and flid <= 30`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || stats[0].Strategy != FullRecompute {
		t.Fatalf("faulted scoped recompute should fall back to full: n=%d stats=%+v", n, stats)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestDeleteDoubleFaultGoesStale is the never-fresh-and-wrong core: when both
// the delta path and the full fallback fail, the AST must be marked stale —
// and the next DML on a stale AST must route through a full recompute, which
// restores freshness once the faults clear.
func TestDeleteDoubleFaultGoesStale(t *testing.T) {
	f := newFixture(t, 1000)
	f.m = New(f.store).WithCatalog(f.cat)
	ca := f.compile(t, "fboth", `
		select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	p := f.m.Analyze(ca)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("maintain.delete", faultinject.Err("maintain.delete"))
	faultinject.Set("maintain.full", faultinject.Err("maintain.full"))

	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 4`))
	if err == nil {
		t.Fatal("double fault must surface an error")
	}
	if n == 0 || stats[0].Err == nil {
		t.Fatalf("stats must record the failure: n=%d stats=%+v", n, stats)
	}
	if st := f.cat.Status("fboth"); !st.Stale {
		t.Fatalf("AST must be stale after refresh failure: %+v", st)
	}

	// Recovery: with the faults cleared, the next DML sees a stale AST and is
	// forced through a full recompute, which alone may mark it fresh again.
	faultinject.Clear("maintain.delete")
	faultinject.Clear("maintain.full")
	n, stats, err = f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, `delete from trans where qty = 5`))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || stats[0].Strategy != FullRecompute {
		t.Fatalf("stale AST must refresh via full recompute: n=%d stats=%+v", n, stats)
	}
	if st := f.cat.Status("fboth"); st.Stale || st.Quarantined {
		t.Fatalf("successful full recompute must clear staleness: %+v", st)
	}
	checkAgainstRecompute(t, f, ca)
}
