// Retail dashboard: the paper's motivating scenario — an analyst fires a
// batch of decision-support queries (different dimensions, levels and
// filters) and a small pool of Automatic Summary Tables answers most of them.
// Each query is routed with RewriteOrFallback, costed against the store; the
// example prints which ASTs served it, the rewritten SQL, and the speedup.
//
//	go run ./examples/retail
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/workload"
)

var astPool = []catalog.ASTDef{
	{Name: "sales_by_loc_year", SQL: `
		select flid, year(date) as year, count(*) as cnt, sum(qty * price) as revenue,
		       sum(qty * price * (1 - disc)) as net
		from trans
		group by flid, year(date)`},
	{Name: "sales_by_acct_month", SQL: `
		select faid, year(date) as year, month(date) as month,
		       count(*) as cnt, sum(qty) as items
		from trans
		group by faid, year(date), month(date)`},
	{Name: "sales_by_product", SQL: `
		select fpgid, year(date) as year, count(*) as cnt,
		       sum(qty * price) as revenue, max(price) as maxprice
		from trans
		group by fpgid, year(date)`},
}

var dashboard = []struct {
	title string
	sql   string
}{
	{"Yearly revenue by state (USA)", `
		select state, year(date) as year, sum(qty * price) as revenue
		from trans, loc
		where flid = lid and country = 'USA'
		group by state, year(date)`},
	{"Net revenue per country", `
		select country, sum(qty * price * (1 - disc)) as net
		from trans, loc
		where flid = lid
		group by country`},
	{"Active buyers per year (accounts with >20 purchases)", `
		select year, count(*) as buyers
		from (select faid, year(date) as year, count(*) as n
		      from trans group by faid, year(date)) a
		where n > 20
		group by year`},
	{"Items per account in H2", `
		select faid, sum(qty) as items
		from trans
		where month(date) >= 7
		group by faid`},
	{"Top product groups by revenue", `
		select pgname, sum(qty * price) as revenue
		from trans, pgroup
		where fpgid = pgid
		group by pgname
		having sum(qty * price) > 100000`},
	{"Average monthly activity (no AST applies: day level)", `
		select day(date) as dom, count(*) as cnt
		from trans
		group by day(date)`},
}

func main() {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 50000, Seed: 99})
	engine := exec.NewEngine(store)
	rw := core.NewRewriter(cat, core.Options{})

	var asts []*core.CompiledAST
	for _, def := range astPool {
		ca, err := rw.CompileAST(def)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(ca.Graph)
		if err != nil {
			log.Fatal(err)
		}
		store.PutRows(ca.Table, res.Rows)
		asts = append(asts, ca)
		fmt.Printf("materialized %-22s %6d rows\n", def.Name, len(res.Rows))
	}
	fmt.Printf("fact table trans: %d rows\n\n", store.MustTable("trans").Cardinality())

	for _, q := range dashboard {
		fmt.Printf("== %s\n", q.title)

		orig, err := qgm.BuildSQL(q.sql, cat)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		origRes, err := engine.Run(orig)
		if err != nil {
			log.Fatal(err)
		}
		origDur := time.Since(start)

		g, res := rw.RewriteOrFallback(context.Background(), orig, asts, store)
		if res == nil {
			fmt.Printf("   no AST matches — base tables, %v (%d rows)\n\n", origDur.Round(time.Microsecond), len(origRes.Rows))
			continue
		}
		start = time.Now()
		newRes, err := engine.Run(g)
		if err != nil {
			log.Fatal(err)
		}
		newDur := time.Since(start)
		if diff := exec.EqualResults(origRes, newRes); diff != "" {
			log.Fatalf("MISMATCH on %q: %s", q.title, diff)
		}
		fmt.Printf("   served by %s: %v → %v (%.1fx), %d rows\n",
			strings.Join(res.Tables(), ", "), origDur.Round(time.Microsecond), newDur.Round(time.Microsecond),
			float64(origDur)/float64(newDur), len(newRes.Rows))
		fmt.Printf("   %s\n\n", g.SQL())
	}
}
