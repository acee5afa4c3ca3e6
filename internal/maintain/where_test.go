package maintain_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// whereAtoms are the predicate shapes DML shares with SELECT: comparisons
// over NULLs, NaNs and -0.0, strings and dates, key sets (x IN (…) and
// disjunctions of key tuples), and shapes the kernels lift to the
// interpreter (OR, NOT, LIKE, IS NULL, CASE).
var whereAtoms = []string{
	"n = 3", "n > 2", "n <> 1", "f > 0.5", "f = f", "f <= 0", "f <> 1.5", "n + 1 > f", "id % 3 = 0",
	"s = 'b'", "s >= 'c'", "s like 'a%'", "s in ('a', 'c')", "n in (1, 2, 7)", "f in (0.5, 2.5)",
	"(n = 1 and s = 'a') or (n = 2 and s = 'b')", "year(d) > 1994", "month(d) = 3", "d is null",
	"n is not null", "not (n > 2)", "case when n > 2 then f else 0 end > 1", "s || 'x' = 'bx'",
}

// whereTable is t(id, n, f, s, d): id unique, every other column nullable and
// holding NULLs; f holds NaN, -0.0 and 0.
func whereTable(rng *rand.Rand, rows int) (*catalog.Catalog, *catalog.Table, [][]sqltypes.Value) {
	cat := catalog.New()
	meta := &catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt}, {Name: "n", Type: sqltypes.KindInt, Nullable: true},
		{Name: "f", Type: sqltypes.KindFloat, Nullable: true}, {Name: "s", Type: sqltypes.KindString, Nullable: true},
		{Name: "d", Type: sqltypes.KindDate, Nullable: true},
	}}
	if err := cat.AddTable(meta); err != nil {
		panic(err)
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 0.5, 1.5, 2.5, 4}
	data := make([][]sqltypes.Value, rows)
	for i := range data {
		cell := func(v sqltypes.Value) sqltypes.Value {
			if rng.Intn(6) == 0 {
				return sqltypes.Null
			}
			return v
		}
		data[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i)),
			cell(sqltypes.NewInt(int64(rng.Intn(8)))),
			cell(sqltypes.NewFloat(floats[rng.Intn(len(floats))])),
			cell(sqltypes.NewString(string(rune('a' + rng.Intn(4))))),
			cell(sqltypes.NewDate(1993+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28))),
		}
	}
	return cat, meta, data
}

// selectIDs is the ids of t where p holds, in stored order, as the
// interpreter and as the chunk pipeline answer (they must agree), or the
// interpreter's error.
func selectIDs(t *testing.T, cat *catalog.Catalog, store *storage.Store, p string) ([]int64, error) {
	t.Helper()
	stmt, err := parser.Parse("select id from t where " + p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.Build(stmt, cat)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	var ids [2][]int64
	for i, interpret := range []bool{true, false} {
		res, err := exec.NewEngine(store).RunCtx(context.Background(), g, exec.Config{Interpret: interpret, Parallelism: 1})
		if err != nil {
			if interpret {
				return nil, err
			}
			t.Fatalf("%s: the pipeline fails (%v) where the interpreter answers", p, err)
		}
		for _, r := range res.Rows {
			ids[i] = append(ids[i], r[0].Int())
		}
	}
	if !slices.Equal(ids[0], ids[1]) {
		t.Fatalf("%s: the pipeline selects %d rows, the interpreter %d", p, len(ids[1]), len(ids[0]))
	}
	return ids[0], nil
}

func buildDML(t *testing.T, cat *catalog.Catalog, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	var d *qgm.DML
	if u, ok := stmt.(*parser.UpdateStmt); ok {
		d, err = qgm.BuildUpdate(u, cat)
	} else {
		d, err = qgm.BuildDelete(stmt.(*parser.DeleteStmt), cat)
	}
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return d
}

// TestDMLAgreesWithSelectOnWhere: a DELETE or UPDATE finds exactly the rows
// a SELECT with its WHERE returns — only rows where the predicate is True,
// never Unknown ones — over single atoms, random AND/OR/NOT trees of them and
// a predicate that raises an error. A DELETE affects as many rows as the
// SELECT counts and leaves the rest in their order; an UPDATE rewrites those
// rows in place, widening an int into a float column and a yyyymmdd integer
// into a date column, and refuses a NULL for a NOT NULL column; a statement
// that fails changes nothing. (An INSERT fits its cells by the same rule, ISO
// date strings included: astdb's TestInsertChecksColumnsAsUpdateDoes.)
func TestDMLAgreesWithSelectOnWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	preds := append(slices.Clone(whereAtoms), "10 / (n - n) > 1")
	for range 40 {
		atom := func() string { return whereAtoms[rng.Intn(len(whereAtoms))] }
		switch rng.Intn(3) {
		case 0:
			preds = append(preds, fmt.Sprintf("(%s) and (%s)", atom(), atom()))
		case 1:
			preds = append(preds, fmt.Sprintf("(%s) or (%s)", atom(), atom()))
		default:
			preds = append(preds, fmt.Sprintf("not ((%s) and (%s))", atom(), atom()))
		}
	}
	for i, p := range preds {
		cat, meta, data := whereTable(rand.New(rand.NewSource(int64(i))), 1500)
		for _, stmt := range []string{
			"delete from t where " + p,
			"update t set f = n, d = 19950104 where " + p,
			"update t set n = id, s = s || 'z' where " + p,
			"update t set id = null where " + p,
		} {
			store := storage.NewStore()
			store.PutRows(meta, data)
			before := store.MustTable("t")
			want, selErr := selectIDs(t, cat, store, p)
			m, dml := maintain.New(store), buildDML(t, cat, stmt)
			var n int
			var err error
			if dml.Kind == qgm.DMLDelete {
				n, _, err = m.ApplyDelete(nil, dml)
			} else {
				n, _, err = m.ApplyUpdate(nil, dml)
			}
			refused := selErr != nil || dml.Sets != nil && dml.Sets[0].Col == 0 && len(want) > 0
			if refused != (err != nil) || refused && store.MustTable("t") != before {
				t.Fatalf("%s: err %v (the SELECT's %v), table replaced: %v", stmt, err, selErr, store.MustTable("t") != before)
			}
			if refused {
				continue
			}
			if n != len(want) {
				t.Fatalf("%s: %d rows affected, the SELECT counts %d", stmt, n, len(want))
			}
			checkWhereResult(t, stmt, dml, data, store.MustTable("t").Snapshot(), want)
		}
	}
}

// checkWhereResult compares the table after stmt with data changed at the
// ids in want.
func checkWhereResult(t *testing.T, stmt string, dml *qgm.DML, data, got [][]sqltypes.Value, want []int64) {
	t.Helper()
	var expect [][]sqltypes.Value
	for _, r := range data {
		hit := slices.Contains(want, r[0].Int())
		if hit && dml.Kind == qgm.DMLDelete {
			continue
		}
		r = slices.Clone(r)
		if hit {
			for _, s := range dml.Sets {
				switch dml.Table.Columns[s.Col].Name {
				case "f":
					if r[2] = r[1]; !r[1].IsNull() {
						r[2] = sqltypes.NewFloat(float64(r[1].Int()))
					}
				case "d":
					r[4] = sqltypes.NewDate(1995, 1, 4)
				case "n":
					r[1] = r[0]
				case "s":
					if !r[3].IsNull() {
						r[3] = sqltypes.NewString(r[3].Str() + "z")
					}
				}
			}
		}
		expect = append(expect, r)
	}
	if len(got) != len(expect) {
		t.Fatalf("%s: %d rows left, want %d", stmt, len(got), len(expect))
	}
	for i := range got {
		for j := range got[i] {
			if g, w := got[i][j], expect[i][j]; g.Kind() != w.Kind() || g.GroupKey() != w.GroupKey() {
				t.Fatalf("%s: row %d column %d is %v (%v), want %v (%v)", stmt, i, j, g, g.Kind(), w, w.Kind())
			}
		}
	}
}
