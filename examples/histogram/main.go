// Histogram example: multi-block matching (paper §4.2.2, Figure 10). The
// query and the AST are both two-level aggregations ("histograms of
// histograms"); rewriting requires matching nested GROUP BY blocks and
// copying the compensation upward — the pattern single-block matchers cannot
// handle.
//
//	go run ./examples/histogram
package main

import (
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 30000, Seed: 5})
	engine := exec.NewEngine(store)
	rw := core.NewRewriter(cat, core.Options{})

	// AST8: for every (year, monthly-transaction-count) pair, in how many
	// months was that count achieved.
	ast, err := rw.CompileAST(catalog.ASTDef{Name: "month_histogram", SQL: `
		select year, tcnt, count(*) as mcnt
		from (select year(date) as year, month(date) as month, count(*) as tcnt
		      from trans
		      group by year(date), month(date)) m
		group by year, tcnt`})
	if err != nil {
		log.Fatal(err)
	}
	astRes, err := engine.Run(ast.Graph)
	if err != nil {
		log.Fatal(err)
	}
	store.PutRows(ast.Table, astRes.Rows)
	fmt.Printf("materialized month_histogram: %d rows\n\n", len(astRes.Rows))

	// Q8: the same histogram without the year dimension — how many months
	// (across all years) saw each transaction count.
	const q8 = `
		select tcnt, count(*) as ycnt
		from (select year(date) as year, month(date) as month, count(*) as tcnt
		      from trans
		      group by year(date), month(date)) m
		group by tcnt`

	orig, err := qgm.BuildSQL(q8, cat)
	if err != nil {
		log.Fatal(err)
	}
	origRes, err := engine.Run(orig)
	if err != nil {
		log.Fatal(err)
	}

	g, _ := qgm.BuildSQL(q8, cat)
	if res := rw.Rewrite(g, ast); res == nil {
		log.Fatal("expected the nested-block match of Figure 10")
	}
	fmt.Println("rewritten (reads only the 2-level summary):")
	fmt.Println("  " + g.SQL())

	newRes, err := engine.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	if diff := exec.EqualResults(origRes, newRes); diff != "" {
		log.Fatalf("MISMATCH: %s", diff)
	}

	// Rows in the order the engine emits its groups: first appearance.
	fmt.Println("\ntcnt | months with that monthly count")
	for _, r := range newRes.Rows {
		fmt.Printf("%4s | %s\n", r[0], r[1])
	}
}
