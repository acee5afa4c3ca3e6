package astdb_test

import (
	"context"
	"slices"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/sqltypes"
)

// TestForeignKeyProvesExtraJoinLossless: a summary table that joins sales to
// region answers a query over sales alone only when a declared foreign key
// proves the extra join lossless (§4.1.1 condition 1): every sale meets
// exactly one region. Without the key the query keeps its base plan; with it
// the table serves the base plan's answer.
func TestForeignKeyProvesExtraJoinLossless(t *testing.T) {
	ctx := context.Background()
	const query = "select srid, sum(amount) as total from sales group by srid"
	for _, declared := range []bool{false, true} {
		db, err := astdb.Open(catalog.New())
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*catalog.Table{
			{Name: "region", PrimaryKey: []string{"rid"}, Columns: []catalog.Column{
				{Name: "rid", Type: sqltypes.KindInt}, {Name: "name", Type: sqltypes.KindString}}},
			{Name: "sales", Columns: []catalog.Column{{Name: "sid", Type: sqltypes.KindInt},
				{Name: "srid", Type: sqltypes.KindInt}, {Name: "amount", Type: sqltypes.KindInt}}},
		} {
			if err := db.CreateTable(tb); err != nil {
				t.Fatal(err)
			}
		}
		if declared {
			if err := db.AddForeignKey(catalog.ForeignKey{ChildTable: "sales", ChildCols: []string{"srid"},
				ParentTable: "region", ParentCols: []string{"rid"}}); err != nil {
				t.Fatal(err)
			}
		}
		var regions, sales [][]sqltypes.Value
		for r := range 5 {
			regions = append(regions, []sqltypes.Value{sqltypes.NewInt(int64(r)), sqltypes.NewString("r")})
		}
		for s := range 2000 {
			sales = append(sales, []sqltypes.Value{sqltypes.NewInt(int64(s)), sqltypes.NewInt(int64(s % 5)), sqltypes.NewInt(int64(s % 13))})
		}
		for table, rows := range map[string][][]sqltypes.Value{"region": regions, "sales": sales} {
			if _, err := db.Insert(ctx, table, rows); err != nil {
				t.Fatal(err)
			}
		}
		base, _ := answer(t, db, query)
		if _, _, err := db.CreateSummaryTable(ctx, "byregion",
			"select srid, sum(amount) as total, count(*) as cnt from sales, region where srid = rid group by srid"); err != nil {
			t.Fatal(err)
		}
		got, asts := answer(t, db, query)
		if served := slices.Equal(asts, []string{"byregion"}); served != declared || got != base {
			t.Errorf("foreign key declared %v: served by %v as %s, base plan %s", declared, asts, got, base)
		}
	}
}

// TestAllowStaleServesStaleNeverQuarantined: after one or two failed
// refreshes a summary table is stale and serves only an engine opened
// WithAllowStale; after a third, the quarantine threshold, it is quarantined
// and serves no engine.
func TestAllowStaleServesStaleNeverQuarantined(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	ctx := context.Background()
	const query = "select region, sum(amount) as total from sales group by region"
	row := [][]sqltypes.Value{{sqltypes.NewString("north"), sqltypes.NewInt(1)}}
	sites := []string{"maintain.incremental:byregion", "maintain.full:byregion"}
	for _, allow := range []bool{false, true} {
		db := openTinyDB(t, astdb.WithAllowStale(allow))
		if _, _, err := db.CreateSummaryTable(ctx, "byregion",
			"select region, sum(amount) as total, count(*) as cnt from sales group by region"); err != nil {
			t.Fatal(err)
		}
		if _, asts := answer(t, db, query); !slices.Equal(asts, []string{"byregion"}) {
			t.Fatalf("allow %v: a fresh table did not serve (%v)", allow, asts)
		}
		for _, s := range sites {
			faultinject.Set(s, faultinject.Err(s))
		}
		for failures, want := range []bool{allow, allow, false} {
			if _, err := db.Insert(ctx, "sales", row); err == nil {
				t.Fatalf("allow %v: refresh %d did not fail", allow, failures+1)
			}
			st := db.Catalog().Status("byregion")
			if !st.Stale || st.Quarantined != (failures == catalog.DefaultQuarantineThreshold-1) {
				t.Fatalf("allow %v, after %d failures: status %+v", allow, failures+1, st)
			}
			if _, asts := answer(t, db, query); slices.Equal(asts, []string{"byregion"}) != want {
				t.Errorf("allow %v, after %d failures (%+v): served by %v", allow, failures+1, st, asts)
			}
			// EXPLAIN of a DELETE reports the full recompute an untrusted
			// table's refresh takes instead of its incremental route.
			status := map[bool]string{false: "stale", true: "quarantined"}[st.Quarantined]
			rep, err := db.ExplainDML(ctx, "delete from sales where region = 'north'")
			if err != nil || len(rep.Routes) != 1 || rep.Routes[0].Status != status || rep.Routes[0].Strategy != "full" ||
				rep.Routes[0].Reason != "materialization is "+status+"; recovery requires a full recompute" {
				t.Errorf("allow %v, after %d failures: EXPLAIN %v %+v", allow, failures+1, err, rep)
			}
		}
		for _, s := range sites {
			faultinject.Clear(s)
		}
	}
}
