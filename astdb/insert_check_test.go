package astdb_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// TestInsertChecksColumnsAsUpdateDoes: an INSERT's values are fitted to their
// columns by the same rule as an UPDATE's SET values, so neither stores NULL
// in a NOT NULL column, a string in an INT column, or an integer that is no
// yyyymmdd date in a DATE column. A rejected statement changes nothing.
func TestInsertChecksColumnsAsUpdateDoes(t *testing.T) {
	db := plainEnv(t)
	ctx := context.Background()
	before := db.Store().MustTable("trans").Cardinality()
	for _, c := range []struct{ sql, want string }{
		{"insert into trans values (900001, 1, 1, 9, '1995-01-04', NULL, 9.5, 0.1)", "NOT NULL"},
		{"insert into trans values (900001, 'x', 1, 9, '1995-01-04', 5, 9.5, 0.1)", "column"},
		{"insert into trans values (900001, 1, 1, 9, 19951399, 5, 9.5, 0.1)", "date out of range"},
		{"insert into trans values (900001, 1, 1, 9, '1995-13-04', 5, 9.5, 0.1)", "date out of range"},
		{"update trans set date = 19951399 where tid = 1", "date out of range"},
		{"update trans set qty = NULL where tid = 1", "NOT NULL"},
	} {
		if _, err := db.ExecStatement(ctx, c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one saying %q", c.sql, err, c.want)
		}
	}
	if got := db.Store().MustTable("trans").Cardinality(); got != before {
		t.Fatalf("trans has %d rows after rejected statements, want %d", got, before)
	}
	// What the check accepts is stored in its column's kind.
	if _, err := db.ExecStatement(ctx, "insert into trans values (900002, 1, 1, 9, 19950104, 5, 9, 0.1)"); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(ctx, "select tid, date, price from trans where tid = 900002")
	if err != nil || len(got.Rows()) != 1 {
		t.Fatalf("%v, %+v", err, got)
	}
	if row := got.Rows()[0]; row[1].String() != "1995-01-04" || row[2].Kind() != sqltypes.KindFloat || row[2].Float() != 9 {
		t.Errorf("stored %v, want the date 1995-01-04 and the float 9", row)
	}
}

// TestRejectedNullInsertLeavesSummaryRight: maintenance trusts NOT NULL — a
// DELETE subtracts SUM(qty) exactly because qty cannot be NULL. An INSERT that
// stored a NULL qty used to leave sq fresh and wrong after the DELETE: the
// query below was answered from sq as 0 where the base table says NULL.
func TestRejectedNullInsertLeavesSummaryRight(t *testing.T) {
	db := plainEnv(t)
	ctx := context.Background()
	if _, _, err := db.CreateSummaryTable(ctx, "sq", "select flid, sum(qty) as s, count(*) as c from trans group by flid"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecStatement(ctx, "insert into trans values (900001, 1, 1, 9999, '1995-01-04', NULL, 9.5, 0.1)"); err == nil {
		t.Fatal("NULL qty accepted")
	}
	for _, sql := range []string{
		"insert into trans values (900002, 1, 1, 9999, '1995-01-04', 5, 9.5, 0.1)",
		"delete from trans where tid = 900002",
	} {
		if _, err := db.ExecStatement(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const sql = "select flid, sum(qty) as s from trans where flid = 9999 group by flid"
	got, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ASTs) != 1 || got.ASTs[0] != "sq" {
		t.Fatalf("answered from %q, want sq", got.ASTs)
	}
	g, err := qgm.BuildSQL(sql, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.NewEngine(db.Store()).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if diff := exec.EqualResults(want, got.Result()); diff != "" {
		t.Fatalf("sq answers %v, the base table %v: %s", got.Rows(), want.Rows, diff)
	}
}
