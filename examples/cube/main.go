// Cube example: one multidimensional AST (GROUPING SETS over location,
// account, year and month — paper §5) serves a whole family of drill-down
// queries. Simple GROUP BY queries slice a cuboid out of the cube with IS
// NULL predicates (§5.1); cube queries match cuboid-by-cuboid (§5.2); and
// queries needing a dimension the cube lacks correctly fail to match.
//
//	go run ./examples/cube
package main

import (
	"fmt"
	"log"
	"time"

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
	workload.Load(cat, store, workload.StarConfig{NumTrans: 40000, Seed: 11})
	engine := exec.NewEngine(store)
	rw := core.NewRewriter(cat, core.Options{})

	cube, err := rw.CompileAST(catalog.ASTDef{Name: "sales_cube", SQL: `
		select flid, faid, year(date) as year, month(date) as month,
		       count(*) as cnt, sum(qty * price) as revenue
		from trans
		group by grouping sets((flid, faid, year(date)), (flid, year(date)),
		                       (flid, year(date), month(date)),
		                       (year(date), month(date)), (year(date)), ())`})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(cube.Graph)
	if err != nil {
		log.Fatal(err)
	}
	store.PutRows(cube.Table, res.Rows)
	fmt.Printf("materialized sales_cube: %d rows over %d grouping sets (trans: %d rows)\n\n",
		len(res.Rows), 6, store.MustTable("trans").Cardinality())

	drill := []struct {
		title string
		sql   string
		want  bool
	}{
		{"Revenue per location and year", `
			select flid, year(date) as year, sum(qty * price) as revenue
			from trans group by flid, year(date)`, true},
		{"Monthly activity per location in 1991", `
			select flid, month(date) as month, count(*) as cnt
			from trans where year(date) = 1991
			group by flid, month(date)`, true},
		{"Yearly totals (coarsest cuboid)", `
			select year(date) as year, count(*) as cnt
			from trans group by year(date)`, true},
		{"Grand total", `
			select count(*) as cnt, sum(qty * price) as revenue
			from trans`, true},
		// A ROLLUP canonicalizes to grouping sets whose union (flid, year) is
		// a cube cuboid: the §5.2 fallback slices that cuboid and regroups
		// with the rollup's own grouping sets.
		{"Rollup over location and year", `
			select flid, year(date) as year, count(*) as cnt
			from trans group by rollup(flid, year(date))`, true},
		{"Per-product revenue (dimension not in cube)", `
			select fpgid, sum(qty * price) as revenue
			from trans group by fpgid`, false},
	}

	for _, q := range drill {
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

		g, _ := qgm.BuildSQL(q.sql, cat)
		rewrite := rw.Rewrite(g, cube)
		if rewrite == nil {
			fmt.Printf("   no cuboid covers this query (expected match: %v)\n\n", q.want)
			if q.want {
				log.Fatal("unexpected miss")
			}
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
		fmt.Printf("   sliced from cube: %v → %v (%.1fx), %d rows\n",
			origDur.Round(time.Microsecond), newDur.Round(time.Microsecond),
			float64(origDur)/float64(newDur), len(newRes.Rows))
		fmt.Printf("   %s\n\n", g.SQL())
	}
}
