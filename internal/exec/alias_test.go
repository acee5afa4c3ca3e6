package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// aliasFixture loads a tiny table and returns a graph whose root IS the base
// table box — the shape where Result.Rows could reach stored data if the run
// handed back anything but rows of its own.
func aliasFixture(t *testing.T) (*storage.Store, *qgm.Graph) {
	t.Helper()
	cat := catalog.New()
	meta := &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: sqltypes.KindInt},
			{Name: "b", Type: sqltypes.KindString},
		},
	}
	cat.MustAddTable(meta)
	store := storage.NewStore()
	td := store.Create(meta)
	for i := 5; i >= 1; i-- { // deliberately not sorted
		td.MustInsert(sqltypes.NewInt(int64(i)), sqltypes.NewString("r"))
	}
	g := qgm.NewGraph(cat)
	g.Root = g.BaseTableBox(meta)
	return store, g
}

// TestResultDoesNotAliasStore: consumers routinely SortRows(res.Rows) in
// place and may overwrite cells; neither may ever reach the stored table.
// This is the audit test for the memoization aliasing fix — before the
// copy-on-return in RunCtx, sorting a base-table-root result silently
// reordered storage for every later reader.
func TestResultDoesNotAliasStore(t *testing.T) {
	store, g := aliasFixture(t)
	res, err := NewEngine(store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(res.Rows))
	}

	// Mutate the result the way consumers do: reorder and clobber.
	SortRows(res.Rows)
	res.Rows[0] = []sqltypes.Value{sqltypes.NewInt(999), sqltypes.NewString("zap")}

	stored, err := store.Scan("t")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{5, 4, 3, 2, 1} {
		if got := stored[i][0].Int(); got != want {
			t.Fatalf("store row %d: got %d, want %d — Result.Rows aliases the store", i, got, want)
		}
	}
}

// TestMemoizedBoxSharedAcrossConsumers: a box referenced by two quantifiers
// (the QGM DAG shape) evaluates once and both consumers read the memoized
// rows; the run must still produce correct results for both, and deduping
// one consumer's output must not disturb the store.
func TestMemoizedBoxSharedAcrossConsumers(t *testing.T) {
	store, _ := aliasFixture(t)
	cat := catalog.New()
	meta := store.MustTable("t").Meta
	cat.MustAddTable(meta)

	// Self-join: select s.a from t s, t r where s.a = r.a — both quantifiers
	// share one memoized base box.
	g, err := qgm.BuildSQL(`select s.a as a from t s, t r where s.a = r.a`, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(store).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("self-join over shared memo: want 5 rows, got %d", len(res.Rows))
	}
	SortRows(res.Rows)
	stored, _ := store.Scan("t")
	if stored[0][0].Int() != 5 {
		t.Fatal("sorting a join result must not reorder the store")
	}
}
