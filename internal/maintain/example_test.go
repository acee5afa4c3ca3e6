package maintain_test

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Example shows the incremental refresh cycle: a summary table absorbs an
// insert batch by merging per-group deltas instead of recomputing.
func Example() {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "events",
		Columns: []catalog.Column{
			{Name: "kind", Type: sqltypes.KindString},
			{Name: "n", Type: sqltypes.KindInt},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("events")
	td := store.Create(meta)
	td.MustInsert(sqltypes.NewString("a"), sqltypes.NewInt(1))
	td.MustInsert(sqltypes.NewString("a"), sqltypes.NewInt(2))
	td.MustInsert(sqltypes.NewString("b"), sqltypes.NewInt(5))
	engine := exec.NewEngine(store)

	rw := core.NewRewriter(cat, core.Options{})
	ast, err := rw.CompileAST(catalog.ASTDef{Name: "per_kind", SQL: `
		select kind, count(*) as cnt, sum(n) as total from events group by kind`})
	if err != nil {
		panic(err)
	}
	rows, err := engine.Run(ast.Graph)
	if err != nil {
		panic(err)
	}
	store.Put(ast.Table, rows.Rows)

	m := maintain.New(store)
	plan := m.Analyze(ast)
	fmt.Println("strategy:", plan.Strategy)

	stats, err := m.ApplyInsert([]*maintain.Plan{plan}, "events", [][]sqltypes.Value{
		{sqltypes.NewString("a"), sqltypes.NewInt(10)},
		{sqltypes.NewString("c"), sqltypes.NewInt(7)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("delta groups: %d, merged: %d, added: %d\n",
		stats[0].DeltaRows, stats[0].Merged, stats[0].Added)

	mat := store.MustTable("per_kind")
	matRows := append([][]sqltypes.Value(nil), mat.Snapshot()...)
	exec.SortRows(matRows)
	for _, r := range matRows {
		fmt.Printf("%s cnt=%s total=%s\n", r[0], r[1], r[2])
	}
	// Output:
	// strategy: incremental
	// delta groups: 2, merged: 1, added: 1
	// a cnt=3 total=13
	// b cnt=1 total=5
	// c cnt=1 total=7
}
