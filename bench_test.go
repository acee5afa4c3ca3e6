// Package repro_test benchmarks every experiment of the paper reproduction:
// one benchmark per figure/table (original vs rewritten execution), plus the
// scaling, matching-overhead and ablation benches. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded results.
package repro_test

import (
	"context"
	"database/sql"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	_ "repro/astdb/driver" // registers the "astdb" database/sql driver
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/server"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

const benchScale = 20000

// envMu guards envCache. Lock discipline: sharedEnv takes envMu only while
// looking up or building an Env, never during measurement, and must be called
// from the benchmark's own goroutine BEFORE any b.RunParallel body — building
// an env inside RunParallel would serialize workers on envMu and attribute
// construction cost to the measured section. The returned Env is safe to
// share across sub-benchmarks because measurement only reads it (Engine runs
// take per-run state; the store is snapshot-isolated); benchmarks that mutate
// an Env (register extra ASTs, insert rows) must build their own with
// bench.NewEnv instead of going through this cache.
var (
	envMu    sync.Mutex
	envCache = map[int]*bench.Env{}
)

// sharedEnv returns a cached environment with every paper AST registered.
func sharedEnv(b *testing.B, scale int) *bench.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[scale]; ok {
		return e
	}
	e := bench.NewEnv(scale, core.Options{})
	for name, sql := range bench.ASTDefs {
		if _, err := e.RegisterAST(name, sql); err != nil {
			b.Fatalf("register %s: %v", name, err)
		}
	}
	envCache[scale] = e
	return e
}

// benchPair runs original-vs-rewritten sub-benchmarks for one paper pairing.
func benchPair(b *testing.B, queryKey, astKey string) {
	env := sharedEnv(b, benchScale)
	sql := bench.Queries[queryKey]
	ast := env.ASTs[astKey]

	orig, err := qgm.BuildSQL(sql, env.Cat)
	if err != nil {
		b.Fatal(err)
	}
	rewritten, err := qgm.BuildSQL(sql, env.Cat)
	if err != nil {
		b.Fatal(err)
	}
	if res := env.RW.Rewrite(rewritten, ast); res == nil {
		b.Fatalf("%s did not rewrite against %s", queryKey, astKey)
	}

	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Engine.Run(orig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rewritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Engine.Run(rewritten); err != nil {
				b.Fatal(err)
			}
		}
		reportSizeRatio(b, env, astKey)
	})
}

// reportSizeRatio reports how many times more rows trans has than the summary
// table ast: the §1.1 claim that a summary table is much smaller than its base.
func reportSizeRatio(b *testing.B, env *bench.Env, ast string) {
	b.ReportMetric(float64(env.Store.TableRows("trans"))/float64(env.Store.TableRows(ast)), "size_ratio")
}

func BenchmarkE01_Fig2_Q1(b *testing.B)    { benchPair(b, "q1", "ast1") }
func BenchmarkE02_Fig5_Q2(b *testing.B)    { benchPair(b, "q2", "ast2") }
func BenchmarkE03_Fig6_Q4(b *testing.B)    { benchPair(b, "q4", "ast6") }
func BenchmarkE04_Fig7_Q6(b *testing.B)    { benchPair(b, "q6", "ast6") }
func BenchmarkE05_Fig8_Q7(b *testing.B)    { benchPair(b, "q7", "ast7") }
func BenchmarkE06_Fig10_Q8(b *testing.B)   { benchPair(b, "q8", "ast8") }
func BenchmarkE07_Fig11_Q10(b *testing.B)  { benchPair(b, "q10", "ast10") }
func BenchmarkE09_Fig13_Q11(b *testing.B)  { benchPair(b, "q11_1", "ast11") }
func BenchmarkE09_Fig13_Q112(b *testing.B) { benchPair(b, "q11_2", "ast11") }
func BenchmarkE10_Fig14_Q121(b *testing.B) { benchPair(b, "q12_1", "ast11") }
func BenchmarkE10_Fig14_Q122(b *testing.B) { benchPair(b, "q12_2", "ast11") }

// BenchmarkE08_Fig12_CubeSemantics measures grouping-sets evaluation on the
// paper's Figure 12 sample shape, scaled up.
func BenchmarkE08_Fig12_CubeSemantics(b *testing.B) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{
		Name: "trans",
		Columns: []catalog.Column{
			{Name: "flid", Type: sqltypes.KindInt},
			{Name: "year", Type: sqltypes.KindInt},
			{Name: "faid", Type: sqltypes.KindInt},
		},
	})
	store := storage.NewStore()
	meta, _ := cat.Table("trans")
	td := store.Create(meta)
	for i := 0; i < 50000; i++ {
		td.MustInsert(
			sqltypes.NewInt(int64(i%40)),
			sqltypes.NewInt(int64(1990+i%5)),
			sqltypes.NewInt(int64(i%700)),
		)
	}
	g, err := qgm.BuildSQL(`select flid, year, faid, count(*) as cnt
		from trans group by grouping sets((flid, year), (year, faid))`, cat)
	if err != nil {
		b.Fatal(err)
	}
	engine := exec.NewEngine(store)
	// The columnar grouping-sets path: one pass shares chunk vectors across
	// sets. Parallelism 1, so the number does not depend on the machine's cores.
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunCtx(context.Background(), g, exec.Config{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_Table1_Having measures rejection speed for the unsound AST.
func BenchmarkE11_Table1_Having(b *testing.B) {
	env := sharedEnv(b, benchScale)
	ast := env.ASTs["astbad"]
	sql := bench.Queries["qbad"]
	for i := 0; i < b.N; i++ {
		g, err := qgm.BuildSQL(sql, env.Cat)
		if err != nil {
			b.Fatal(err)
		}
		if res := env.RW.Rewrite(g, ast); res != nil {
			b.Fatal("unsound rewrite accepted")
		}
	}
}

// BenchmarkE12_Speedup sweeps fact-table scales.
func BenchmarkE12_Speedup(b *testing.B) {
	for _, scale := range []int{2000, 10000, 50000} {
		env := sharedEnv(b, scale)
		for _, pair := range []struct{ q, a string }{
			{"q1", "ast1"}, {"q7", "ast7"}, {"q11_1", "ast11"},
		} {
			orig, err := qgm.BuildSQL(bench.Queries[pair.q], env.Cat)
			if err != nil {
				b.Fatal(err)
			}
			rw, err := qgm.BuildSQL(bench.Queries[pair.q], env.Cat)
			if err != nil {
				b.Fatal(err)
			}
			if env.RW.Rewrite(rw, env.ASTs[pair.a]) == nil {
				b.Fatalf("%s/%s: no rewrite", pair.q, pair.a)
			}
			b.Run(pair.q+"/orig/n="+strconv.Itoa(scale), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Engine.Run(orig); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(pair.q+"/ast/n="+strconv.Itoa(scale), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Engine.Run(rw); err != nil {
						b.Fatal(err)
					}
				}
				reportSizeRatio(b, env, pair.a)
			})
		}
	}
}

// BenchmarkE13_MatchOverhead measures matching + splicing latency per query
// (graph build time measured separately for subtraction).
func BenchmarkE13_MatchOverhead(b *testing.B) {
	env := sharedEnv(b, 2000)
	b.Run("buildOnly/q1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qgm.BuildSQL(bench.Queries["q1"], env.Cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, pair := range []struct{ q, a string }{
		{"q1", "ast1"}, {"q8", "ast8"}, {"q10", "ast10"}, {"q12_1", "ast11"},
	} {
		b.Run("match/"+pair.q, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := qgm.BuildSQL(bench.Queries[pair.q], env.Cat)
				if err != nil {
					b.Fatal(err)
				}
				if env.RW.Rewrite(g, env.ASTs[pair.a]) == nil {
					b.Fatal("no rewrite")
				}
			}
		})
		// cached: the same repeated query answered through the plan cache —
		// one cold miss to warm it, then every iteration is a key lookup plus
		// a plan clone instead of build+match+splice.
		b.Run("cached/"+pair.q, func(b *testing.B) {
			cache := core.NewPlanCache(64)
			asts := []*core.CompiledAST{env.ASTs[pair.a]}
			ctx := context.Background()
			cr, err := env.RW.RewriteSQLCached(ctx, cache, bench.Queries[pair.q], asts, env.Store)
			if err != nil || strings.Join(cr.ASTs, ",") == "" {
				b.Fatalf("warmup did not rewrite: %+v err=%v", cr, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cr, err := env.RW.RewriteSQLCached(ctx, cache, bench.Queries[pair.q], asts, env.Store)
				if err != nil {
					b.Fatal(err)
				}
				if !cr.Hit {
					b.Fatal("cache miss on repeated query")
				}
			}
		})
	}
}

// Ablation benches: the paper's design choices vs their naive alternatives.
func BenchmarkA01_MinimalQCL(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"minimal", core.Options{}},
		{"leafFirst", core.Options{LeafFirstDerivation: true}},
	} {
		env := bench.NewEnv(2000, mode.opts)
		ast, err := env.RegisterAST("ast2", bench.ASTDefs["ast2"])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := qgm.BuildSQL(bench.Queries["q2"], env.Cat)
				if err != nil {
					b.Fatal(err)
				}
				if env.RW.Rewrite(g, ast) == nil {
					b.Fatal("no rewrite")
				}
			}
		})
	}
}

func BenchmarkA02_RejoinRegroup(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"eliminate1N", core.Options{}},
		{"alwaysRegroup", core.Options{AlwaysRegroup: true}},
	} {
		env := bench.NewEnv(benchScale, mode.opts)
		ast, err := env.RegisterAST("ast7", bench.ASTDefs["ast7"])
		if err != nil {
			b.Fatal(err)
		}
		g, err := qgm.BuildSQL(bench.Queries["q7"], env.Cat)
		if err != nil {
			b.Fatal(err)
		}
		if env.RW.Rewrite(g, ast) == nil {
			b.Fatal("no rewrite")
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Engine.Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkA03_CuboidChoice(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"smallest", core.Options{}},
		{"first", core.Options{FirstCuboid: true}},
	} {
		env := bench.NewEnv(benchScale, mode.opts)
		ast, err := env.RegisterAST("ast11", bench.ASTDefs["ast11"])
		if err != nil {
			b.Fatal(err)
		}
		g, err := qgm.BuildSQL(bench.Queries["q11_1"], env.Cat)
		if err != nil {
			b.Fatal(err)
		}
		if env.RW.Rewrite(g, ast) == nil {
			b.Fatal("no rewrite")
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Engine.Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_DSSuite measures the TPC-D-style suite end to end: total
// latency against base tables vs planned as the engine serves it
// (RewriteOrFallback over the deployed AST set), then ds11 alone: its derived
// table and its scalar subquery each read a summary table, so its served plan
// reads no base table.
func BenchmarkE14_DSSuite(b *testing.B) {
	env := bench.NewEnv(benchScale, core.Options{})
	var asts []*core.CompiledAST
	for _, d := range workload.DSASTs {
		ca, err := env.RegisterAST(d.Name, d.SQL)
		if err != nil {
			b.Fatal(err)
		}
		asts = append(asts, ca)
	}
	var origs, rewrites []*qgm.Graph
	for _, q := range workload.DSQueries {
		og, err := qgm.BuildSQL(q.SQL, env.Cat)
		if err != nil {
			b.Fatal(err)
		}
		origs = append(origs, og)
		rg, _ := env.RW.RewriteOrFallback(context.Background(), og, asts, env.Store)
		rewrites = append(rewrites, rg)
	}
	// Cross original-vs-rewritten with the chunk pipeline on one worker and
	// on GOMAXPROCS workers (the grouping-heavy suite is where spreading
	// chunks should pay, cores permitting).
	for _, mode := range []struct {
		name string
		par  int
	}{
		{"vectorized", 1},
		{"vectorized/parallel", 0},
	} {
		cfg := exec.Config{Parallelism: mode.par}
		b.Run("original/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range origs {
					if _, err := env.Engine.RunCtx(context.Background(), g, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("rewritten/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range rewrites {
					if _, err := env.Engine.RunCtx(context.Background(), g, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	for i, q := range workload.DSQueries {
		if q.Name != "ds11" {
			continue
		}
		want, err := env.Engine.Run(origs[i])
		if err != nil {
			b.Fatal(err)
		}
		if got, err := env.Engine.Run(rewrites[i]); err != nil || exec.EqualResults(want, got) != "" {
			b.Fatalf("ds11 served plan: err=%v, rows differ from the base plan", err)
		}
		for _, leg := range []struct {
			name string
			g    *qgm.Graph
		}{{"original", origs[i]}, {"rewritten", rewrites[i]}} {
			b.Run("ds11/"+leg.name, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, err := env.Engine.RunCtx(context.Background(), leg.g, exec.Config{Parallelism: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE16_Refresh measures keeping one summary table fresh (the paper's
// problem (c)) at benchScale: under an insert batch, the delta merge of
// ApplyInsert ("incremental") against appending the batch and recomputing the
// definition ("full"); and under one statement of the benchmark writer's
// batch size, 64 rows, inserted, updated or deleted ("dml=64/…"), each
// reporting the groups it recomputed scoped. Every iteration starts from the
// loaded trans and the materialised table; putting them back is outside the
// timer.
func BenchmarkE16_Refresh(b *testing.B) {
	const def = `select flid, year(date) as year, month(date) as month,
		count(*) as cnt, sum(qty) as sq, sum(qty * price) as rev, min(price) as lo, max(price) as hi
		from trans group by flid, year(date), month(date)`
	env := bench.NewEnv(benchScale, core.Options{})
	m := maintain.New(env.Store)
	plan := m.Analyze(env.MustRegisterAST("e16", def))
	if plan.Strategy != maintain.Incremental {
		b.Fatalf("e16 is not maintained incrementally: %s", plan.Reason)
	}
	trans := env.Store.MustTable("trans")
	base, summary := trans.Snapshot(), env.Store.MustTable("e16").Snapshot()
	restore := func() {
		env.Store.PutRows(trans.Meta, base)
		env.Store.PutRows(plan.AST.Table, summary)
	}
	// A batch repeats the loaded rows under new keys, so every foreign key
	// holds and the groups it touches are the data's own.
	batch := func(n int) [][]sqltypes.Value {
		rows := make([][]sqltypes.Value, n)
		for i := range rows {
			rows[i] = append([]sqltypes.Value{sqltypes.NewInt(int64(10_000_000 + i))}, base[i%len(base)][1:]...)
		}
		return rows
	}
	for _, n := range []int{100, 1000, 10000} {
		rows := batch(n)
		for _, mode := range []string{"incremental", "full"} {
			b.Run(fmt.Sprintf("batch=%d/%s", n, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					restore()
					b.StartTimer()
					if mode == "incremental" {
						st, err := m.ApplyInsert([]*maintain.Plan{plan}, "trans", rows)
						if err != nil || st[0].Strategy != maintain.Incremental {
							b.Fatalf("incremental refresh: %v, %+v", err, st)
						}
						continue
					}
					if err := env.Store.Rewrite("trans", storage.Changes{Add: storage.Chunked(len(trans.Meta.Columns), rows)}); err != nil {
						b.Fatal(err)
					}
					if _, err := m.RefreshFull(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The writer updates the batch it just inserted and deletes one from a few
	// cycles back, so the legs take the table's last 64 rows; delete-front
	// takes positions 1000 to 1063, where a delete shifts every later row.
	tids := func(from int) string {
		lo, hi := base[from][0].Int(), base[from+63][0].Int()
		return fmt.Sprintf(" where tid >= %d and tid <= %d", min(lo, hi), max(lo, hi))
	}
	where := tids(len(base) - 64)
	dml := func(sql string) *qgm.DML {
		stmt, err := parser.ParseStatement(sql)
		if err != nil {
			b.Fatal(err)
		}
		var d *qgm.DML
		if u, ok := stmt.(*parser.UpdateStmt); ok {
			d, err = qgm.BuildUpdate(u, env.Cat)
		} else {
			d, err = qgm.BuildDelete(stmt.(*parser.DeleteStmt), env.Cat)
		}
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	update, del, rows := dml("update trans set qty = qty + 1"+where), dml("delete from trans"+where), batch(64)
	front := dml("delete from trans" + tids(1000))
	for _, kind := range []string{"insert", "update", "delete", "delete-front"} {
		b.Run("dml=64/"+kind, func(b *testing.B) {
			scoped := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				var st []maintain.Stats
				n, err := 64, error(nil)
				switch kind {
				case "insert":
					st, err = m.ApplyInsert([]*maintain.Plan{plan}, "trans", rows)
				case "update":
					n, st, err = m.ApplyUpdate([]*maintain.Plan{plan}, update)
				case "delete":
					n, st, err = m.ApplyDelete([]*maintain.Plan{plan}, del)
				default:
					n, st, err = m.ApplyDelete([]*maintain.Plan{plan}, front)
				}
				if err != nil || n != 64 || st[0].Strategy != maintain.Incremental {
					b.Fatalf("%s: %d rows, %v, %+v", kind, n, err, st)
				}
				scoped += st[0].Scoped
			}
			b.ReportMetric(float64(scoped)/float64(b.N), "scoped/op")
		})
	}
	restore()
}

// BenchmarkExecOperators is the per-operator layer under the end-to-end
// benchmark (benchmark/): one leg per vectorized operator shape, each a plan
// run on its own with nothing from the rewriter, the wire or the driver
// around it, at 10k and 100k trans rows. allocs/op and B/op are the numbers
// to watch: per-chunk, per-group and per-row allocation shows here first.
// Serial (Parallelism 1), so allocs/op does not depend on GOMAXPROCS. A leg
// that names a group table mode fails unless every GROUP BY table it ends
// with is in that mode (exec.group.direct, exec.group.hashed): the direct
// index must keep engaging on small integer keys, and only there. A "coded"
// leg also fails unless a key column was grouped by its codes
// (exec.group.coded): a dimension's string column, made small integers.
func BenchmarkExecOperators(b *testing.B) {
	operators := []struct {
		name, sql string
		groupBy   bool   // reports ns per trans row
		mode      string // "direct" or "hashed": every group table's index; "coded direct": direct, by code
	}{
		{"scan_filter_select", `select tid, faid, qty * price as amt from trans where qty > 3 and year(date) > 1990`, false, ""},
		{"fused_groupby", `select fpgid, year(date) as year, count(*) as cnt, sum(qty * price) as gross, min(price) as lo
			from trans where month(date) >= 6 group by fpgid, year(date)`, true, "direct"},
		{"star_groupby_gsets", `select state, year(date) as year, count(*) as cnt, sum(qty * price) as value
			from trans, loc where flid = lid and country = 'USA'
			group by grouping sets((state, year(date)), (state), ())`, true, ""},
		{"having_over_groupby", `select flid, year(date) as year, count(*) as cnt
			from trans group by flid, year(date) having count(*) > 3`, true, "direct"},
		{"join_select", `select aid, status, qty * price * (1 - disc) as amt
			from trans, pgroup, acct
			where pgid = fpgid and faid = aid
			and price > 100 and disc > 0.1 and pgname = 'TV'`, false, ""},
		{"select_over_groupby", `select flid, count(*) as busy_months
			from (select flid, year(date) as y, month(date) as m, count(*) as n
			      from trans group by flid, year(date), month(date)) mm
			where n > 5 group by flid`, true, "direct"},
		// The hash loop itself: a computed string key behind a star probe, a
		// table of well over 10k groups at 100k rows, and the probe with
		// nothing filtered out before it or aggregated after it.
		{"groupby_string_key", `select city || state as cs, count(*) as cnt from trans, loc where flid = lid group by city || state`, true, "hashed"},
		{"groupby_15k_groups", `select faid, flid, year(date) as year, count(*) as cnt, sum(price) as gross
			from trans group by faid, flid, year(date)`, true, "hashed"},
		{"star_probe_only", `select aid, status, qty * price * (1 - disc) as amt
			from trans, pgroup, acct where pgid = fpgid and faid = aid`, false, ""},
		// ds2 without its filter: a dimension's string column grouped by its
		// codes, which keeps the table direct.
		{"groupby_dim_string", `select state, year(date) as year, sum(qty * price * (1 - disc)) as revenue
			from trans, loc where flid = lid group by state, year(date)`, true, "coded direct"},
		// DISTINCT's pair tables: Figure 13's Q11.3, which no summary table
		// serves, and ds11's scalar subquery, one group folded a strip at a
		// time.
		{"groupby_count_distinct", `select flid, year(date) as year, month(date) as month, count(distinct faid) as custcnt
			from trans group by flid, year(date), month(date)`, true, ""},
		{"global_count_distinct", `select sum(qty * price) / count(distinct faid) as avg_spend from trans`, true, ""},
		// A scoped recompute's lower box: MIN/MAX of the 64 groups one 64-row
		// DELETE touches, an OR of key tuples probed as a hash semi-join.
		{"keyset_filter", keysetSQL(64), true, ""},
		// Joins only the joined chunk answers: a star join with a predicate
		// across its operands, and a GROUP BY over a cross join of two
		// dimensions (pgroup × the US rows of loc, whatever the scale).
		{"residual_join", `select tid, city, qty * price as amt from trans, loc where flid = lid and qty * 20 < lid`, false, ""},
		{"cross_groupby", `select pgname, count(*) as cnt from pgroup, loc where country = 'USA' group by pgname`, false, ""},
		// A snowflake: cust is keyed through acct, and both dimensions are
		// built on the kernels with a local predicate of their own.
		{"snowflake_groupby", `select age, count(*) as cnt from trans, acct, cust
			where faid = aid and acid = cid and status = 'active' and age > 40 group by age`, true, ""},
		// The typed kernels under a base-table statement: ds5's float
		// comparison ahead of a GROUP BY on a date part, and q4's and
		// ds12's date part and int-by-float product over every row.
		{"filter_float_cmp", `select year(date) as year, sum(qty * price * disc) as givenaway
			from trans where disc > 0.1 group by year(date)`, true, ""},
		{"date_arith_groupby", `select year(date) as year, sum(qty * price) as value from trans group by year(date)`, true, ""},
	}
	for _, scale := range []int{10_000, 100_000} {
		env := bench.NewEnv(scale, core.Options{})
		for _, op := range operators {
			g, err := qgm.BuildSQL(op.sql, env.Cat)
			if err != nil {
				b.Fatalf("%s: %v", op.name, err)
			}
			boxes := 0
			for _, bx := range g.Boxes() {
				if bx.Kind != qgm.BaseTableBox {
					boxes++
				}
			}
			b.Run(op.name+"/"+strconv.Itoa(scale), func(b *testing.B) {
				// Every box runs on the pipeline, and no expression of it is
				// evaluated a row at a time.
				o := obs.New()
				env.Engine.SetObserver(o)
				defer env.Engine.SetObserver(nil)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := env.Engine.RunCtx(context.Background(), g, exec.Config{Parallelism: 1}); err != nil {
						b.Fatal(err)
					}
				}
				if n, l := o.Counter(exec.CtrVecBoxes), o.Counter(exec.CtrVecLifted); n != int64(b.N*boxes) || l != 0 {
					b.Fatalf("%s: %d boxes on the pipeline in %d runs of %d, %d expressions lifted", op.name, n, b.N, boxes, l)
				}
				direct, hashed, coded := o.Counter(exec.CtrGroupDirect), o.Counter(exec.CtrGroupHashed), o.Counter(exec.CtrGroupCoded)
				mode := strings.TrimPrefix(op.mode, "coded ")
				if mode == "direct" && (direct == 0 || hashed > 0) || mode == "hashed" && (hashed == 0 || direct > 0) || mode != op.mode && coded == 0 {
					b.Fatalf("%s: %d direct and %d hashed group tables, %d key columns coded, want %s only", op.name, direct, hashed, coded, op.mode)
				}
				if op.groupBy {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(scale), "ns/row")
				}
			})
		}
	}
}

// keysetSQL is the lower box of a scoped recompute over n groups of
// (fpgid, year(date), month(date)), as maintenance injects it.
func keysetSQL(n int) string {
	tuples := make([]string, n)
	for i := range tuples {
		tuples[i] = fmt.Sprintf("(fpgid = %d and year(date) = %d and month(date) = %d)", 1+i*7%50, 1990+i%3, 1+i*5%12)
	}
	return `select fpgid, year(date) as year, month(date) as month, min(price) as lo, max(price) as hi
		from trans where ` + strings.Join(tuples, " or ") + ` group by fpgid, year(date), month(date)`
}

// BenchmarkE18_CatalogScaling measures rewrite-candidate selection latency as
// the AST catalog grows, with and without the signature index. The catalog is
// 64 disjoint single-table schemas with ASTs registered round-robin, so for
// the single-table probe query the index refuses all but every 64th candidate
// before the matcher runs.
func BenchmarkE18_CatalogScaling(b *testing.B) {
	sizes := []int{1, 16, 64, 256}
	if testing.Short() {
		sizes = []int{1, 64}
	}
	for _, nASTs := range sizes {
		env := bench.NewWideEnv(bench.WideTables, 64)
		asts, err := bench.RegisterWideASTs(env, nASTs, bench.WideTables)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts core.Options
		}{
			{"pruned", core.Options{}},
			{"unpruned", core.Options{NoPrune: true}},
		} {
			rw := core.NewRewriter(env.Cat, mode.opts)
			b.Run("asts="+strconv.Itoa(nASTs)+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g, err := qgm.BuildSQL(bench.WideQuery, env.Cat)
					if err != nil {
						b.Fatal(err)
					}
					if rw.RewriteBestCostCtx(context.Background(), g, asts, env.Store) == nil {
						b.Fatal("wide query did not rewrite")
					}
				}
			})
		}
	}
}

// BenchmarkServedResult serves paper queries (q4, q11_1, q11_2 and q1: 3,
// 397, 567 and 216 rows at benchScale, each read from a summary table)
// through an in-process wire server and database/sql, from QueryContext to
// the last row scanned into any values, as an application reads them.
// ns/value and allocs/value divide by the result values moved, so the cost of
// moving an answer — encode, decode, Next — shows apart from the statement's
// fixed cost, which q4 nearly is.
func BenchmarkServedResult(b *testing.B) {
	env := sharedEnv(b, benchScale)
	srv := server.New(env.DB(), server.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	pool, err := sql.Open("astdb", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	for _, q := range []string{"q4", "q11_1", "q11_2", "q1"} {
		b.Run(q, func(b *testing.B) {
			values := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := pool.QueryContext(ctx, bench.Queries[q])
				if err != nil {
					b.Fatal(err)
				}
				cols, _ := rows.Columns()
				vals, ptrs := make([]any, len(cols)), make([]any, len(cols))
				for j := range vals {
					ptrs[j] = &vals[j]
				}
				for rows.Next() {
					if err := rows.Scan(ptrs...); err != nil {
						b.Fatal(err)
					}
					values += len(cols)
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(values), "ns/value")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(values), "allocs/value")
			b.ReportMetric(float64(values)/float64(b.N), "values/op")
		})
	}
}
