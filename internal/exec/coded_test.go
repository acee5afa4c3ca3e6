package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// codedTables adds to keyTable's k a dimension kd of 3,000 rows in three
// chunks, keyed on k.g by kk (NULL on every 50th row), and kq, a dimension of
// kd keyed by kd.kp (a snowflake; key 1 twice). kd's string column ks has
// NULLs, "" and values repeated across rows. The local predicate kl = 0 keeps
// 70 rows of it: the value "amber" is only on rows it drops, "red" is on kept
// and dropped rows, and "late" is first kept after more than 2,900 other
// values, so it is coded among the kept rows' values, not all of them.
func codedTables() (func(sql string) *qgm.Graph, *Engine) {
	cat, store := keyTable()
	str := sqltypes.NewString
	cat.MustAddTable(&catalog.Table{Name: "kd", Columns: []catalog.Column{
		{Name: "kk", Type: sqltypes.KindInt, Nullable: true},
		{Name: "ks", Type: sqltypes.KindString, Nullable: true},
		{Name: "kl", Type: sqltypes.KindInt},
		{Name: "kp", Type: sqltypes.KindInt},
	}})
	cat.MustAddTable(&catalog.Table{Name: "kq", Columns: []catalog.Column{
		{Name: "qk", Type: sqltypes.KindInt},
		{Name: "qs", Type: sqltypes.KindString, Nullable: true},
	}})
	kept := []sqltypes.Value{str("red"), str("green"), sqltypes.Null, str(""), str("Red"), str("blue")}
	var kd [][]sqltypes.Value
	for i := 0; i < 3000; i++ {
		kk, kl, ks := sqltypes.NewInt(int64(i%9)), int64(1), str(fmt.Sprintf("x%04d", i))
		if i%50 == 7 {
			kk = sqltypes.Null
		}
		switch {
		case i%100 < 2:
			kl, ks = 0, kept[i/100%len(kept)]
		case i >= 2990:
			kl, ks = 0, str("late")
		case i%100 == 50:
			ks = str("amber")
		case i%100 == 51:
			ks = str("red")
		}
		kd = append(kd, []sqltypes.Value{kk, ks, sqltypes.NewInt(kl), sqltypes.NewInt(int64(i % 5))})
	}
	kq := [][]sqltypes.Value{{sqltypes.NewInt(0), str("north")}, {sqltypes.NewInt(1), str("south")},
		{sqltypes.NewInt(2), sqltypes.Null}, {sqltypes.NewInt(3), str("north")}, {sqltypes.NewInt(4), str("east")},
		{sqltypes.NewInt(1), str("west")}}
	for _, tab := range []struct {
		name string
		rows [][]sqltypes.Value
	}{{"kd", kd}, {"kq", kq}} {
		meta, _ := cat.Table(tab.name)
		store.PutRows(meta, tab.rows)
	}
	build := func(sql string) *qgm.Graph {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", sql, err))
		}
		return g
	}
	return build, NewEngine(store)
}

// TestCodedKeysMatchTheInterpreter: a GROUP BY on a string column of a star
// join's dimension groups that column by its codes, and answers as the
// interpreter does — the same rows in the same order, every value bit for
// bit (sqltypes.Same), or the same error — serially and at two workers: on the
// bare column; under ROLLUP and GROUPING SETS, where a grouped-out NULL stands
// beside the data's NULL; with MIN, MAX and COUNT(DISTINCT) of the column
// itself; under a HAVING on it; grouped and inside an expression too; beside
// a fact string column; on a snowflake dimension's column; under SELECT
// DISTINCT; over dimensions built on the kernels from every kind of local
// predicate and key. Each counts its coded key columns — none over a derived
// table, whose join is a box of its own that the GROUP BY reads as its fact —
// and its lifted expressions, a dimension's among them, and the first keeps
// every group table direct: the kept rows' seven values take seven codes,
// where all of kd's would take thousands.
func TestCodedKeysMatchTheInterpreter(t *testing.T) {
	build, engine := codedTables()
	const join = " from k, kd where g = kk and kl = 0 "
	failed := 0
	for _, c := range []struct {
		sql           string
		coded, lifted int64
		direct        bool
	}{
		{"select g, ks, year(d) as y, count(*) as c" + join + "group by g, ks, year(d)", 1, 0, true},
		{"select ks, count(*) as c, sum(n) as sn" + join + "group by ks", 1, 0, false},
		{"select ks, year(d) as y, count(*) as c" + join + "group by rollup(ks, year(d))", 1, 0, false},
		{"select ks, g, sum(n) as sn" + join + "group by grouping sets((ks, g), (ks), (g), ())", 1, 0, false},
		{"select g, ks, min(ks) as lo, max(ks) as hi, count(distinct ks) as dk, count(ks) as c" + join + "group by rollup(g, ks)", 1, 0, false},
		{"select ks, count(*) as c" + join + "group by ks having count(*) > 100 and (ks is null or ks <> 'red')", 1, 1, false},
		{"select ks, ks || '!' as t, max(ks || s) as m" + join + "group by ks, ks || '!'", 1, 0, false},
		{"select s, ks, count(*) as c" + join + "group by s, ks", 1, 0, false},
		{"select t, count(*) as c from (select ks as t, g from k, kd where g = kk and kl = 0) x group by t", 0, 0, false},
		{"select qs, ks, count(*) as c from k, kd, kq where g = kk and kp = qk and kl = 0 group by qs, ks", 2, 0, false},
		{"select distinct ks, qs from k, kd, kq where g = kk and kp = qk and kl = 0", 2, 0, false},
		// How kd is built: local predicates that lower (a comparison, an IN
		// list), one that lifts, one reading a scalar subquery, a computed
		// key, kq keyed through kd rows a predicate dropped, and a local
		// predicate that fails.
		{"select ks, count(*) as c" + join + "and kp in (0, 1, 3) and kp < 3 group by ks", 1, 0, false},
		{"select g, ks, count(*) as c from k, kd where g = kk and (ks like 'r%' or ks is null) group by g, ks", 1, 1, false},
		{"select ks, count(*) as c from k, kd where g = kk and kl = (select min(n) from k) group by ks", 1, 0, false},
		{"select ks, count(*) as c from k, kd where kk + 0 = g and kl = 0 group by ks", 1, 0, false},
		{"select qs, g, count(*) as c from k, kd, kq where g = kk and kp = qk and kl = 0 and qs <> 'west' group by qs, g", 1, 0, false},
		{"select ks, count(*) as c from k, kd where g = kk and 10 / (kp - 2) > 1 group by ks", 0, 0, false},
	} {
		g := build(c.sql)
		want, wantErr := engine.RunCtx(context.Background(), g, Config{Interpret: true})
		for _, par := range []int{1, 2} {
			o := obs.New()
			engine.SetObserver(o)
			got, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
			engine.SetObserver(nil)
			switch {
			case wantErr != nil || err != nil:
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s (parallelism %d): error %v, interpreter's %v", c.sql, par, err, wantErr)
				}
			case sameRows(want, got) != "":
				t.Fatalf("%s (parallelism %d): %s", c.sql, par, sameRows(want, got))
			case len(want.Rows) < 3:
				t.Fatalf("%s: %d rows", c.sql, len(want.Rows))
			}
			if coded, lifted := o.Counter(CtrGroupCoded), o.Counter(CtrVecLifted); coded != c.coded || lifted != c.lifted {
				t.Errorf("%s (parallelism %d): %d key columns coded and %d expressions lifted, want %d and %d", c.sql, par, coded, lifted, c.coded, c.lifted)
			}
			if direct, hashed := o.Counter(CtrGroupDirect), o.Counter(CtrGroupHashed); c.direct && (direct == 0 || hashed > 0) {
				t.Errorf("%s (parallelism %d): %d direct and %d hashed group tables, want direct only", c.sql, par, direct, hashed)
			}
		}
		if wantErr != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d statements failed, want the division's one", failed)
	}
}

// sameRows reports the first difference between two results row by row, in
// order, every value compared by sqltypes.Same; "" when there is none.
func sameRows(want, got *Result) string {
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		for j, v := range row {
			if !sqltypes.Same(v, got.Rows[i][j]) {
				return fmt.Sprintf("row %d: %v, want %v", i, got.Rows[i], row)
			}
		}
	}
	return ""
}
