package astdb_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// One value order: `=` is an equivalence relation whatever the values — NaN,
// a float beside an int — so column equivalence (§4.1.1) cannot make a
// rewrite change an answer, and WHERE, GROUP BY, MIN and MAX agree with each
// other on the base plan and under the interpreter.

var valueOrderConfigs = []struct {
	name string
	cfg  exec.Config
}{{"pipeline", exec.Config{}}, {"interpret", exec.Config{Interpret: true}}}

// openValueDB creates table name with the given columns and rows under cfg.
func openValueDB(t *testing.T, cfg exec.Config, name string, cols []catalog.Column, rows [][]sqltypes.Value) *astdb.Engine {
	t.Helper()
	db, err := astdb.Open(catalog.New(), astdb.WithLimits(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&catalog.Table{Name: name, Columns: cols}); err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 {
		if _, err := db.Insert(context.Background(), name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// answer runs sql and renders its rows sorted, with the summary tables it
// read.
func answer(t *testing.T, db *astdb.Engine, sql string) (string, []string) {
	t.Helper()
	ans, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows := ans.Rows()
	astdb.SortRows(rows)
	return fmt.Sprint(rows), ans.ASTs
}

func floats(vs ...float64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(vs))
	for i, v := range vs {
		out[i] = sqltypes.NewFloat(v)
	}
	return out
}

// TestNaNRowJoinsNoEquivalenceClass: a row whose g is NaN satisfies neither
// f = g nor g = h, so it is in no answer, on the base plan or served through
// a summary table whose definition equates the same columns.
func TestNaNRowJoinsNoEquivalenceClass(t *testing.T) {
	cols := []catalog.Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "f", Type: sqltypes.KindFloat},
		{Name: "g", Type: sqltypes.KindFloat}, {Name: "h", Type: sqltypes.KindFloat}}
	rows := [][]sqltypes.Value{append([]sqltypes.Value{sqltypes.NewInt(5)}, floats(5, math.NaN(), 6)...)}
	for range 2000 {
		rows = append(rows, append([]sqltypes.Value{sqltypes.NewInt(7)}, floats(7, 7, 7)...))
	}
	const query = "select f, count(*) from t where f = g and g = h group by f"
	for _, c := range valueOrderConfigs {
		db := openValueDB(t, c.cfg, "t", cols, rows)
		if got, _ := answer(t, db, "select id, f, g from t where f = 5 and f = g"); got != "[]" {
			t.Errorf("%s: f = 5 and f = g answered %s, want no rows", c.name, got)
		}
		base, _ := answer(t, db, query)
		if base != "[[7.0 2000]]" {
			t.Errorf("%s: base plan answered %s, want [[7.0 2000]]", c.name, base)
		}
		if _, _, err := db.CreateSummaryTable(context.Background(), "s",
			"select h, count(*) as c from t where f = g and g = h group by h"); err != nil {
			t.Fatal(err)
		}
		served, asts := answer(t, db, query)
		if !slices.Equal(asts, []string{"s"}) || served != base {
			t.Errorf("%s: served by %v as %s, base plan %s", c.name, asts, served, base)
		}
	}
}

// TestMinMaxOverNaNIgnoresRowOrder: NaN is above every number, so MAX is NaN
// and MIN is 1.0 whichever row comes first — in a query, and in a summary
// table maintained by merging the second row into the first.
func TestMinMaxOverNaNIgnoresRowOrder(t *testing.T) {
	cols := []catalog.Column{{Name: "g", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindFloat}}
	one := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(1)}
	nan := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(math.NaN())}
	const query = "select g, min(v) as lo, max(v) as hi, count(*) as c from t group by g"
	for _, c := range valueOrderConfigs {
		for _, order := range [][][]sqltypes.Value{{one, nan}, {nan, one}} {
			db := openValueDB(t, c.cfg, "t", cols, order[:1])
			if _, _, err := db.CreateSummaryTable(context.Background(), "mm", query); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Insert(context.Background(), "t", order[1:]); err != nil {
				t.Fatal(err)
			}
			if got, asts := answer(t, db, query); got != "[[1 1.0 NaN 2]]" || !slices.Equal(asts, []string{"mm"}) {
				t.Errorf("%s, %v first: served by %v as %s, want [[1 1.0 NaN 2]]", c.name, order[0][1], asts, got)
			}
			whole := openValueDB(t, c.cfg, "t", cols, order)
			if got, _ := answer(t, whole, query); got != "[[1 1.0 NaN 2]]" {
				t.Errorf("%s, %v first: base plan answered %s, want [[1 1.0 NaN 2]]", c.name, order[0][1], got)
			}
			// WHERE's = and GROUP BY's groups are one relation: NaN is not 1.0.
			if got, _ := answer(t, whole, "select v, count(*) from t where v = 1.0 group by v"); got != "[[1.0 1]]" {
				t.Errorf("%s: v = 1.0 grouped as %s, want [[1.0 1]]", c.name, got)
			}
		}
	}
}

// TestDateComparesOnlyWithDates: a date is not the number of its yyyymmdd
// payload — it groups apart from it, so it is not equal to it either — and
// typecheck refuses what Compare cannot evaluate, at the door rather than
// at run time.
func TestDateComparesOnlyWithDates(t *testing.T) {
	cols := []catalog.Column{{Name: "d", Type: sqltypes.KindDate}, {Name: "i", Type: sqltypes.KindInt}}
	rows := [][]sqltypes.Value{{sqltypes.NewDate(1991, 4, 12), sqltypes.NewInt(19910412)}}
	for _, c := range valueOrderConfigs {
		db := openValueDB(t, c.cfg, "t", cols, rows)
		for _, where := range []string{"d = DATE '1991-04-12'", "d > DATE '1991-01-01'", "i = 19910412.0"} {
			if got, _ := answer(t, db, "select count(*) from t where "+where); got != "[[1]]" {
				t.Errorf("%s: where %s counted %s, want [[1]]", c.name, where, got)
			}
		}
		for _, where := range []string{"d = 19910412", "d = i", "d > 1.5", "d = 19910412.0"} {
			_, err := db.Query(context.Background(), "select count(*) from t where "+where)
			if err == nil || !strings.Contains(err.Error(), "incompatible kinds") {
				t.Errorf("%s: where %s: %v, want a typecheck refusal", c.name, where, err)
			}
		}
	}
}
