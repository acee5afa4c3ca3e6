package maintain

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// checkFresh fails unless the summary table is fresh and equals its
// recomputation.
func checkFresh(t *testing.T, f *fixture, ca *core.CompiledAST) {
	t.Helper()
	if st := f.cat.Status(ca.Def.Name); st.Stale || st.Quarantined {
		t.Fatalf("%s is not fresh: %+v", ca.Def.Name, st)
	}
	checkAgainstRecompute(t, f, ca)
}

// TestMinMaxScopesOnlyALostExtreme: a group of a MIN/MAX summary table is
// recomputed against the base table only when the delete side takes its
// extreme and the insert side brings nothing back as far. An UPDATE that
// keeps every price scopes no group; deleting the rows at one group's lowest
// price and an inner row of another scopes the first; halving the lowest
// price of a third scopes nothing, doubling that of a fourth scopes it.
func TestMinMaxScopesOnlyALostExtreme(t *testing.T) {
	f := newTrackedFixture(t, 1500)
	ca := f.compile(t, "st_product_month", workload.DSASTs[0].SQL)
	p := f.m.Analyze(ca)
	step := func(scoped int, sql string) {
		t.Helper()
		var n int
		var stats []Stats
		var err error
		if strings.HasPrefix(sql, "update") {
			n, stats, err = f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, sql))
		} else {
			n, stats, err = f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, sql))
		}
		if err != nil || n == 0 || stats[0].Strategy != Incremental || stats[0].Scoped != scoped {
			t.Fatalf("%s: n=%d stats=%+v err=%v, want incremental with %d group(s) scoped", sql, n, stats, err, scoped)
		}
		checkFresh(t, f, ca)
	}
	step(0, `update trans set qty = qty + 1 where qty = 2`)

	// Groups of (fpgid, year, month) with a row strictly between their lowest
	// and highest price: the tids at the lowest price, and one inner tid.
	type group struct {
		lo, hi float64
		low    []string
		inner  string
	}
	var groups []*group
	byKey := map[[3]int64]*group{}
	trans := f.store.MustTable("trans").Snapshot()
	for _, r := range trans {
		k := [3]int64{r[2].Int(), r[4].DateYear(), r[4].DateMonth()}
		if byKey[k] == nil {
			byKey[k] = &group{lo: math.Inf(1), hi: math.Inf(-1)}
			groups = append(groups, byKey[k])
		}
		g, price := byKey[k], r[6].Float()
		g.lo, g.hi = min(g.lo, price), max(g.hi, price)
	}
	for _, r := range trans {
		g, price, tid := byKey[[3]int64{r[2].Int(), r[4].DateYear(), r[4].DateMonth()}], r[6].Float(), strconv.FormatInt(r[0].Int(), 10)
		if price == g.lo {
			g.low = append(g.low, tid)
		} else if price < g.hi {
			g.inner = tid
		}
	}
	groups = slices.DeleteFunc(groups, func(g *group) bool { return g.inner == "" })
	if len(groups) < 4 {
		t.Fatalf("%d groups with an inner price, want 4", len(groups))
	}
	in := func(g *group) string { return "tid in (" + strings.Join(g.low, ", ") + ")" }
	step(1, "delete from trans where "+in(groups[0])+" or tid = "+groups[1].inner)
	step(0, "update trans set price = price / 2 where "+in(groups[2]))
	step(1, "update trans set price = price * 2 where "+in(groups[3]))
}

// TestInconsistentTableRoutesToFullRecompute: a materialization that
// disagrees with its base table — a group missing, a tracker below the rows a
// DELETE takes, a SUM that is NULL — makes the merge refuse, and the DELETE
// refreshes the table by full recomputation instead.
func TestInconsistentTableRoutesToFullRecompute(t *testing.T) {
	for name, corrupt := range map[string]func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value{
		"group dropped": func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value { return slices.Delete(rows, i, i+1) },
		"tracker below the delete count": func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value {
			rows[i][1] = sqltypes.NewInt(0)
			return rows
		},
		"sum NULL": func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value {
			rows[i][2] = sqltypes.Null
			return rows
		},
	} {
		t.Run(name, func(t *testing.T) { deleteFromCorrupted(t, corrupt) })
	}
}

// TestDuplicatedGroupRoutesToFullRecompute: a group the materialization holds
// twice is refused too; merging into its first row left the second stale.
func TestDuplicatedGroupRoutesToFullRecompute(t *testing.T) {
	deleteFromCorrupted(t, func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value { return append(rows, rows[i]) })
}

// deleteFromCorrupted corrupts a materialization around its group i, one of
// two rows or more, deletes one base row of that group, and requires a full
// recompute that leaves the table fresh and recompute-equal.
func deleteFromCorrupted(t *testing.T, corrupt func(rows [][]sqltypes.Value, i int) [][]sqltypes.Value) {
	f := newTrackedFixture(t, 600)
	ca := f.compile(t, "refuse", `select flid, count(*) as c, sum(qty) as s from trans group by flid`)
	p := f.m.Analyze(ca)
	rows := f.store.MustTable("refuse").Snapshot()
	i := slices.IndexFunc(rows, func(r []sqltypes.Value) bool { return r[1].Int() >= 2 })
	trans := f.store.MustTable("trans").Snapshot()
	j := slices.IndexFunc(trans, func(r []sqltypes.Value) bool { return r[3].Int() == rows[i][0].Int() })
	f.store.PutRows(ca.Table, corrupt(rows, i))

	del := fmt.Sprintf("delete from trans where tid = %d", trans[j][0].Int())
	n, stats, err := f.m.ApplyDelete([]*Plan{p}, buildDelete(t, f, del))
	if err != nil || n != 1 || stats[0].Strategy != FullRecompute {
		t.Fatalf("%s: n=%d stats=%+v err=%v, want one row deleted and a full recompute", del, n, stats, err)
	}
	checkFresh(t, f, ca)
}

// TestRetiredGroupRebornHoldsTheInsertDelta: an UPDATE of every row of a
// group retires it on the delete side and re-creates it on the insert side,
// so it holds exactly the insert delta's values — not the stored sum minus
// the deleted one plus the inserted one, which for these floats is not the
// same number.
func TestRetiredGroupRebornHoldsTheInsertDelta(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt}, {Name: "g", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindFloat}}})
	meta, _ := cat.Table("t")
	store := storage.NewStore()
	row := func(id, g int64, v float64) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewInt(id), sqltypes.NewInt(g), sqltypes.NewFloat(v)}
	}
	store.PutRows(meta, [][]sqltypes.Value{row(1, 1, 0.1), row(2, 2, 5)})
	f := &fixture{cat: cat, store: store, engine: exec.NewEngine(store), rw: core.NewRewriter(cat, core.Options{}), m: New(store).WithCatalog(cat)}
	ca := f.compile(t, "sums", `select g, count(*) as c, sum(v) as s from t group by g`)
	p := f.m.Analyze(ca)

	// 0.2 and 0.3 merge in as one delta, 0.5: the table holds 0.1 + 0.5,
	// while the delete delta of the group's rows is (0.1 + 0.2) + 0.3.
	if _, err := f.m.ApplyInsert([]*Plan{p}, "t", [][]sqltypes.Value{row(3, 1, 0.2), row(4, 1, 0.3)}); err != nil {
		t.Fatal(err)
	}
	group := func() []sqltypes.Value {
		rows := f.store.MustTable("sums").Snapshot()
		return rows[slices.IndexFunc(rows, func(r []sqltypes.Value) bool { return r[0].Int() == 1 })]
	}
	v1, v2, v3 := 0.1, 0.2, 0.3 // variables: a constant expression would add exactly
	stored, rows := group()[2].Float(), v1+v2+v3
	if stored-rows == 0 || stored-rows+rows == rows {
		t.Fatalf("stored %v, rows %v: stored − deleted + inserted must differ from the inserted sum", stored, rows)
	}

	n, stats, err := f.m.ApplyUpdate([]*Plan{p}, buildUpdate(t, f, `update t set id = id + 10 where g = 1`))
	if err != nil || n != 3 || stats[0].Strategy != Incremental || stats[0].Retired != 1 {
		t.Fatalf("n=%d stats=%+v err=%v, want 3 rows and the group retired on the incremental path", n, stats, err)
	}
	if got := group(); got[1].Int() != 3 || math.Float64bits(got[2].Float()) != math.Float64bits(rows) {
		t.Fatalf("reborn group holds %v, want count 3 and sum %v bit for bit", got, rows)
	}
	checkFresh(t, f, ca)
}
