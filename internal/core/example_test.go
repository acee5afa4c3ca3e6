package core_test

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Example demonstrates the end-to-end flow on a tiny deterministic table:
// define a summary table, rewrite a coarser query to read it, and execute.
func Example() {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "sales",
		Columns: []catalog.Column{
			{Name: "region", Type: sqltypes.KindString},
			{Name: "year", Type: sqltypes.KindInt},
			{Name: "amount", Type: sqltypes.KindInt},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("sales")
	td := store.Create(meta)
	for _, r := range []struct {
		region string
		year   int64
		amount int64
	}{
		{"west", 1990, 5}, {"west", 1990, 7}, {"west", 1991, 11},
		{"east", 1990, 3}, {"east", 1991, 2}, {"east", 1991, 4},
	} {
		td.MustInsert(sqltypes.NewString(r.region), sqltypes.NewInt(r.year), sqltypes.NewInt(r.amount))
	}
	engine := exec.NewEngine(store)

	// Register and materialize the summary table.
	rw := core.NewRewriter(cat, core.Options{})
	ast, err := rw.CompileAST(catalog.ASTDef{Name: "by_region_year", SQL: `
		select region, year, count(*) as cnt, sum(amount) as total
		from sales group by region, year`})
	if err != nil {
		panic(err)
	}
	rows, err := engine.Run(ast.Graph)
	if err != nil {
		panic(err)
	}
	store.PutRows(ast.Table, rows.Rows)

	// A coarser query rewrites to re-aggregate the summary.
	g, err := qgm.BuildSQL("select region, sum(amount) as total from sales group by region", cat)
	if err != nil {
		panic(err)
	}
	if res := rw.Rewrite(g, ast); res == nil {
		panic("no rewrite")
	}
	fmt.Println(g.SQL())

	result, err := engine.Run(g)
	if err != nil {
		panic(err)
	}
	exec.SortRows(result.Rows)
	for _, r := range result.Rows {
		fmt.Printf("%s %s\n", r[0], r[1])
	}
	// Output:
	// SELECT by_region_year.region, sum(by_region_year.total) AS total FROM by_region_year GROUP BY by_region_year.region
	// east 9
	// west 23
}

// ExampleRewriter_Explain shows the per-pair decision log for a rejected
// match: the AST's HAVING filtered partial groups the query still needs
// (the paper's Table 1).
func ExampleRewriter_Explain() {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "g", Type: sqltypes.KindInt},
		},
	})
	rw := core.NewRewriter(cat, core.Options{})
	ast, err := rw.CompileAST(catalog.ASTDef{Name: "filtered", SQL: `
		select k, g, count(*) as cnt from t group by k, g having count(*) > 2`})
	if err != nil {
		panic(err)
	}
	g, err := qgm.BuildSQL("select k, count(*) as cnt from t group by k", cat)
	if err != nil {
		panic(err)
	}
	for _, te := range rw.Explain(context.Background(), g, ast) {
		status := "reject"
		if te.Matched {
			status = "match"
		}
		fmt.Printf("%s %s vs %s\n", status, te.Subsumee, te.Subsumer)
	}
	// Output:
	// match Base-t vs Base-t
	// match Sel-Q vs Sel-Q
	// match GB-Q vs GB-Q
	// reject TopSel-Q vs TopSel-Q
}
