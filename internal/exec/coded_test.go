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
// bit (sqltypes.Same) — serially and at two workers: on the bare column; under
// ROLLUP and GROUPING SETS, where a grouped-out NULL stands beside the data's
// NULL; with MIN, MAX and COUNT(DISTINCT) of the column itself; under a
// HAVING on it; grouped and inside an expression too; beside a fact string
// column; on a snowflake dimension's column; under SELECT DISTINCT. Each
// counts its coded key columns — none over a derived table, whose join is a
// box of its own that the GROUP BY reads as its fact — and the first keeps
// every group table direct: the kept rows' seven values take seven codes,
// where all of kd's would take thousands.
func TestCodedKeysMatchTheInterpreter(t *testing.T) {
	build, engine := codedTables()
	const join = " from k, kd where g = kk and kl = 0 "
	for _, c := range []struct {
		sql    string
		coded  int64
		direct bool
	}{
		{"select g, ks, year(d) as y, count(*) as c" + join + "group by g, ks, year(d)", 1, true},
		{"select ks, count(*) as c, sum(n) as sn" + join + "group by ks", 1, false},
		{"select ks, year(d) as y, count(*) as c" + join + "group by rollup(ks, year(d))", 1, false},
		{"select ks, g, sum(n) as sn" + join + "group by grouping sets((ks, g), (ks), (g), ())", 1, false},
		{"select g, ks, min(ks) as lo, max(ks) as hi, count(distinct ks) as dk, count(ks) as c" + join + "group by rollup(g, ks)", 1, false},
		{"select ks, count(*) as c" + join + "group by ks having count(*) > 100 and (ks is null or ks <> 'red')", 1, false},
		{"select ks, ks || '!' as t, max(ks || s) as m" + join + "group by ks, ks || '!'", 1, false},
		{"select s, ks, count(*) as c" + join + "group by s, ks", 1, false},
		{"select t, count(*) as c from (select ks as t, g from k, kd where g = kk and kl = 0) x group by t", 0, false},
		{"select qs, ks, count(*) as c from k, kd, kq where g = kk and kp = qk and kl = 0 group by qs, ks", 2, false},
		{"select distinct ks, qs from k, kd, kq where g = kk and kp = qk and kl = 0", 2, false},
	} {
		g := build(c.sql)
		want, err := engine.RunCtx(context.Background(), g, Config{Interpret: true})
		if err != nil {
			t.Fatalf("%s (interpreter): %v", c.sql, err)
		}
		for _, par := range []int{1, 2} {
			o := obs.New()
			engine.SetObserver(o)
			got, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
			engine.SetObserver(nil)
			if err != nil {
				t.Fatalf("%s (parallelism %d): %v", c.sql, par, err)
			}
			if d := sameRows(want, got); d != "" {
				t.Fatalf("%s (parallelism %d): %s", c.sql, par, d)
			}
			if coded := o.Counter(CtrGroupCoded); coded != c.coded {
				t.Errorf("%s (parallelism %d): %d key columns coded, want %d", c.sql, par, coded, c.coded)
			}
			if direct, hashed := o.Counter(CtrGroupDirect), o.Counter(CtrGroupHashed); c.direct && (direct == 0 || hashed > 0) {
				t.Errorf("%s (parallelism %d): %d direct and %d hashed group tables, want direct only", c.sql, par, direct, hashed)
			}
		}
		if len(want.Rows) < 3 {
			t.Fatalf("%s: %d rows", c.sql, len(want.Rows))
		}
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
