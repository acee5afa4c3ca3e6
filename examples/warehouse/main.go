// Warehouse lifecycle: the three companion problems the paper's introduction
// delegates to its citations, working together around the matching algorithm —
// (a) the HRU greedy advisor picks which summary tables to build, (b) the
// cost-based router decides whether to use them per query, and (c) the
// incremental maintainer keeps them fresh as transactions stream in.
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 30000, Seed: 8})
	engine := exec.NewEngine(store)
	rw := core.NewRewriter(cat, core.Options{})

	// (a) Advise: measure the cuboid lattice, pick 3 summary tables.
	fmt.Println("== advising (HRU greedy over the cuboid lattice)")
	props, lattice, err := advisor.SelectASTs(advisor.Config{
		Fact: "trans",
		Dims: []advisor.Dimension{
			{Name: "flid", Expr: "flid"},
			{Name: "faid", Expr: "faid"},
			{Name: "fpgid", Expr: "fpgid"},
			{Name: "year", Expr: "year(date)"},
		},
		Aggs: []string{"count(*) as cnt", "sum(qty) as sum_qty", "sum(qty * price) as revenue"},
		K:    3,
	}, cat, store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   fact table: %d rows\n", lattice.Size[lattice.Top()])

	m := maintain.New(store)
	var asts []*core.CompiledAST
	var plans []*maintain.Plan
	for i, p := range props {
		ca, err := rw.CompileAST(p.Def)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(ca.Graph)
		if err != nil {
			log.Fatal(err)
		}
		store.PutRows(ca.Table, res.Rows)
		asts = append(asts, ca)
		plan := m.Analyze(ca)
		plans = append(plans, plan)
		fmt.Printf("   pick %d: %-28s %6d rows  benefit=%-8d maintenance=%s\n",
			i+1, p.Def.Name, p.Rows, p.Benefit, plan.Strategy)
	}

	// (b) Route the morning dashboard with the cost-based decision.
	dashboard := []string{
		"select flid, year(date) as year, count(*) as cnt from trans group by flid, year(date)",
		"select fpgid, sum(qty * price) as revenue from trans group by fpgid having sum(qty * price) > 50000",
		"select year(date) as year, sum(qty) as items from trans group by year(date)",
		"select faid, count(*) as cnt from trans where year(date) = 1991 group by faid",
	}
	runDashboard := func(tag string) {
		fmt.Printf("\n== dashboard (%s)\n", tag)
		for _, sql := range dashboard {
			orig, err := qgm.BuildSQL(sql, cat)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			origRes, err := engine.Run(orig)
			if err != nil {
				log.Fatal(err)
			}
			origDur := time.Since(start)

			g, _ := qgm.BuildSQL(sql, cat)
			res := rw.RewriteBestCost(g, asts, store)
			if res == nil {
				fmt.Printf("   base tables  %8s  %s\n", origDur.Round(time.Microsecond), short(sql))
				continue
			}
			start = time.Now()
			newRes, err := engine.Run(g)
			if err != nil {
				log.Fatal(err)
			}
			newDur := time.Since(start)
			if diff := exec.EqualResults(origRes, newRes); diff != "" {
				log.Fatalf("MISMATCH: %s", diff)
			}
			fmt.Printf("   %-12s %8s→%-8s (%.0fx)  %s\n", res.AST.Def.Name,
				origDur.Round(time.Microsecond), newDur.Round(time.Microsecond),
				float64(origDur)/float64(newDur), short(sql))
		}
	}
	runDashboard("before inserts")

	// (c) Stream transaction batches; maintain incrementally.
	fmt.Println("\n== streaming inserts with incremental maintenance")
	tid := int64(5_000_000)
	for batch := 1; batch <= 3; batch++ {
		rows := makeBatch(store, tid, 400)
		tid += int64(len(rows))
		start := time.Now()
		stats, err := m.ApplyInsert(plans, "trans", rows)
		if err != nil {
			log.Fatal(err)
		}
		total := time.Since(start)
		fmt.Printf("   batch %d: %d rows inserted, %d ASTs refreshed in %s", batch, len(rows), len(stats), total.Round(time.Microsecond))
		for _, st := range stats {
			fmt.Printf("  [%s %s Δ%d]", st.AST, st.Strategy, st.DeltaRows)
		}
		fmt.Println()
	}

	runDashboard("after inserts — summaries still fresh and verified")
}

func short(sql string) string {
	if len(sql) > 70 {
		return sql[:67] + "..."
	}
	return sql
}

func makeBatch(store *storage.Store, firstTid int64, n int) [][]sqltypes.Value {
	accts := store.MustTable("acct").Cardinality()
	locs := store.MustTable("loc").Cardinality()
	pgs := store.MustTable("pgroup").Cardinality()
	var rows [][]sqltypes.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []sqltypes.Value{
			sqltypes.NewInt(firstTid + int64(i)),
			sqltypes.NewInt(int64(1 + (i*11)%accts)),
			sqltypes.NewInt(int64(1 + (i*13)%pgs)),
			sqltypes.NewInt(int64(1 + (i*17)%locs)),
			sqltypes.NewDate(1992, 1+i%12, 1+i%28),
			sqltypes.NewInt(int64(1 + i%5)),
			sqltypes.NewFloat(float64(5+i%495) * 1.5),
			sqltypes.NewFloat(float64(i%25) / 100),
		})
	}
	return rows
}
