package exec

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// havingFixture is a table t(k, v) of `groups` groups by k, one row each
// except every hundredth, which has five; the HAVING query keeps those.
func havingFixture(t testing.TB, groups int) (*storage.Store, *qgm.Graph, int) {
	t.Helper()
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "k", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindInt}}})
	cat.MustAddTable(&catalog.Table{Name: "one", Columns: []catalog.Column{{Name: "x", Type: sqltypes.KindInt}}})
	var rows [][]sqltypes.Value
	for k := 0; k < groups; k++ {
		n := 1
		if k%100 == 0 {
			n = 5
		}
		for i := 0; i < n; i++ {
			rows = append(rows, []sqltypes.Value{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(i))})
		}
	}
	store := storage.NewStore()
	tm, _ := cat.Table("t")
	om, _ := cat.Table("one")
	store.PutRows(tm, rows)
	store.PutRows(om, [][]sqltypes.Value{{sqltypes.NewInt(1)}})
	g, err := qgm.BuildSQL("select k, count(*) as c from t group by k having count(*) > 3", cat)
	if err != nil {
		t.Fatal(err)
	}
	return store, g, len(rows)
}

// testEvaluator is the evaluator RunCtx builds for Config{Parallelism: 1},
// for tests that look at the memo.
func testEvaluator(store *storage.Store, o *obs.Observer) *evaluator {
	bud := &runBudget{ctx: context.Background()}
	return &evaluator{store: store, memo: map[int]*relation{}, bud: bud, chg: charger{b: bud}, par: 1, obsv: o}
}

// TestHavingMaterializesOnlySurvivors: a HAVING select over a GROUP BY reads
// the groups as column vectors and turns only the groups it keeps into rows.
// Sixteen times the groups, 1 % kept: beyond what the group table itself costs
// the run pays well under one row block per group, and nothing is allocated
// per group.
func TestHavingMaterializesOnlySurvivors(t *testing.T) {
	const small, large = 1024, 16384
	store, g, _ := havingFixture(t, large)
	ev := testEvaluator(store, nil)
	rel, err := ev.evalBox(g.Root)
	if err != nil {
		t.Fatal(err)
	}
	gb := ev.memo[g.Root.Quantifiers[0].Box.ID]
	if gb == nil || gb.n != large || gb.rows != nil {
		t.Fatalf("GROUP BY relation %+v: want %d groups in chunks, never flattened", gb, large)
	}
	if rows := rel.rowsOf(); len(rows) != (large+99)/100 || len(rows[0]) != 2 {
		t.Fatalf("%d rows survive, want %d", len(rows), (large+99)/100)
	}

	measure := func(run func()) (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(5, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	query := func(groups int) (float64, uint64) {
		store, g, _ := havingFixture(t, groups)
		e := NewEngine(store)
		return measure(func() {
			if _, err := e.RunCtx(context.Background(), g, Config{Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	table := func(groups int) uint64 { // what the group table alone allocates
		_, bytes := measure(func() {
			gt := newGroupTable(1, countStars, 0, false)
			key := make([]sqltypes.Value, 1)
			for k := 0; k < groups; k++ {
				key[0] = sqltypes.NewInt(int64(k))
				gt.find(key, true)
			}
		})
		return bytes
	}
	allocsSmall, bytesSmall := query(small)
	allocsLarge, bytesLarge := query(large)
	perGroup := (float64(bytesLarge-bytesSmall) - float64(table(large)-table(small))) / (large - small)
	const rowBlock = 2*40 + 24 // a two-column row and its slice header
	t.Logf("%d groups: %.0f allocs, %d bytes; %d groups: %.0f allocs, %d bytes; %.0f bytes per group beyond the group table",
		small, allocsSmall, bytesSmall, large, allocsLarge, bytesLarge, perGroup)
	if perGroup > rowBlock/2 {
		t.Errorf("%.0f bytes per group beyond the group table: groups that do not survive are being materialized (a row block is %d)", perGroup, rowBlock)
	}
	if allocsLarge-allocsSmall > (large-small)/8 {
		t.Errorf("allocations grow with the groups: %.0f at %d, %.0f at %d", allocsSmall, small, allocsLarge, large)
	}
}

// TestEveryRelationChunkIsSealed: whatever a box evaluates to — a base table's
// chunks, a projection's output (shared input columns, gathered, computed and
// constant ones), a GROUP BY's groups, a row-path relation columnarized for a
// pipeline parent — every vector a reader of the relation holds is sealed.
func TestEveryRelationChunkIsSealed(t *testing.T) {
	store, g, tRows := havingFixture(t, 3000)
	sealed := func(what string, chunks []*storage.Chunk) {
		t.Helper()
		if len(chunks) == 0 {
			t.Fatalf("%s: no chunks", what)
		}
		for i, c := range chunks {
			for j := range c.Width() {
				if !c.Col(j).Sealed() {
					t.Errorf("%s: chunk %d column %d is not sealed", what, i, j)
				}
			}
		}
	}
	for _, sql := range []string{
		"select k, count(*) as c from t group by k having count(*) > 3",
		"select k, v + 1 as w, 7 as seven from t where v < 3",
		"select k, v from t",
	} {
		q, err := qgm.BuildSQL(sql, g.Cat)
		if err != nil {
			t.Fatal(err)
		}
		ev := testEvaluator(store, nil)
		if _, err := ev.evalBox(q.Root); err != nil {
			t.Fatal(err)
		}
		if len(ev.memo) < 2 {
			t.Fatalf("%s: %d relations memoized", sql, len(ev.memo))
		}
		for id, rel := range ev.memo {
			if rel.n > 0 {
				sealed(fmt.Sprintf("%s: box %d", sql, id), rel.chunks)
			}
		}
	}
	rows, _ := store.Scan("t")
	rel := &relation{n: tRows, rows: rows}
	sealed("columnarized rows", rel.chunksOf(2))
}

// TestSharedGroupByEvaluatesOnce: a GROUP BY box with two parents — the
// HAVING select, and a select that cross-joins it with a one-row table — is
// evaluated once, as chunks; both parents read that same relation, neither
// flattens it, and both see the same groups.
func TestSharedGroupByEvaluatesOnce(t *testing.T) {
	const groups = 300
	store, g, tRows := havingFixture(t, groups)
	gb := g.Root.Quantifiers[0].Box
	x := g.NewQuantifier(qgm.ForEach, gb, "x")
	one, _ := g.Cat.Table("one")
	cross := g.NewBox(qgm.SelectBox, "cross")
	cross.Quantifiers = []*qgm.Quantifier{x, g.NewQuantifier(qgm.ForEach, g.BaseTableBox(one), "o")}
	cross.Cols = []qgm.QCL{{Name: "k", Expr: &qgm.ColRef{Q: x, Col: 0}}, {Name: "c", Expr: &qgm.ColRef{Q: x, Col: 1}}}

	o := obs.New()
	ev := testEvaluator(store, o)
	having, err := ev.evalBox(g.Root)
	if err != nil {
		t.Fatal(err)
	}
	shared := ev.memo[gb.ID]
	all, err := ev.evalBox(cross)
	if err != nil {
		t.Fatal(err)
	}
	if ev.memo[gb.ID] != shared || shared.chunks == nil || shared.rows != nil {
		t.Fatalf("GROUP BY relation %+v: want one relation, emitted as chunks, never flattened", shared)
	}
	if scanned := o.Counter(CtrRowsScanned); scanned != int64(tRows+1) {
		t.Fatalf("%d rows scanned, want t once (%d) and the one-row table", scanned, tRows)
	}
	want := int64(1) // the cross select, beside the plan's own
	for _, b := range g.Boxes() {
		if b.Kind != qgm.BaseTableBox {
			want++
		}
	}
	if boxes := o.Counter(CtrVecBoxes); boxes != want {
		t.Fatalf("%d boxes on the pipeline, want %d: the plan's and the cross select", boxes, want)
	}
	var kept [][]sqltypes.Value
	for _, r := range all.rowsOf() {
		if r[1].Int() > 3 {
			kept = append(kept, r)
		}
	}
	if all.n != groups || len(kept) != groups/100 {
		t.Fatalf("row-path parent sees %d groups, %d with count > 3", all.n, len(kept))
	}
	requireIdentical(t, "shared GROUP BY", &Result{Rows: kept}, &Result{Rows: having.rowsOf()})
}
