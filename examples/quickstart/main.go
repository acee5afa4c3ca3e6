// Quickstart: define a schema, register an Automatic Summary Table, and
// watch a query get rewritten to read it.
//
//	go run ./examples/quickstart
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
	// 1. Catalog + synthetic data: the paper's credit-card star schema
	//    (Figure 1) with RI constraints from Trans to its dimensions.
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 20000, Seed: 1})
	engine := exec.NewEngine(store)

	// 2. Register an AST: per-account, per-location, per-year transaction
	//    counts (AST1 from the paper's Figure 2).
	rw := core.NewRewriter(cat, core.Options{})
	ast, err := rw.CompileAST(catalog.ASTDef{
		Name: "ast1",
		SQL: `select faid, flid, year(date) as year, count(*) as cnt
		      from trans group by faid, flid, year(date)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	astRows, err := engine.Run(ast.Graph)
	if err != nil {
		log.Fatal(err)
	}
	store.PutRows(ast.Table, astRows.Rows)
	fmt.Printf("materialized ast1: %d rows (trans has %d — %.0fx smaller)\n",
		len(astRows.Rows), store.MustTable("trans").Cardinality(),
		float64(store.MustTable("trans").Cardinality())/float64(len(astRows.Rows)))

	// 3. The user query (Q1): counts per account, state and year in the USA.
	const q1 = `
		select faid, state, year(date) as year, count(*) as cnt
		from trans, loc
		where flid = lid and country = 'USA'
		group by faid, state, year(date)
		having count(*) > 3`

	g, err := qgm.BuildSQL(q1, cat)
	if err != nil {
		log.Fatal(err)
	}
	if res := rw.Rewrite(g, ast); res == nil {
		log.Fatal("expected a rewrite")
	}
	fmt.Println("\nrewritten query:")
	fmt.Println("  " + g.SQL())

	// 4. Verify: both forms produce the same answer.
	orig, _ := qgm.BuildSQL(q1, cat)
	origRes, err := engine.Run(orig)
	if err != nil {
		log.Fatal(err)
	}
	newRes, err := engine.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	if diff := exec.EqualResults(origRes, newRes); diff != "" {
		log.Fatalf("MISMATCH: %s", diff)
	}
	fmt.Printf("\nverified: original and rewritten agree on %d rows\n", len(origRes.Rows))
}
