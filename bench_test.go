// Package repro_test benchmarks every experiment of the paper reproduction:
// one benchmark per figure/table (original vs rewritten execution), plus the
// scaling, matching-overhead and ablation benches. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for recorded results.
package repro_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qgm"
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
	})
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
			if err != nil || cr.AST == "" {
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
// latency against base tables vs routed through the deployed AST set.
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
		rg, _ := qgm.BuildSQL(q.SQL, env.Cat)
		env.RW.RewriteBestCost(rg, asts, env.Store)
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
}

// BenchmarkExecOperators is the per-operator layer under the end-to-end
// benchmark (benchmark/): one leg per vectorized operator shape, each a plan
// run on its own with nothing from the rewriter, the wire or the driver
// around it, at 10k and 100k trans rows. allocs/op and B/op are the numbers
// to watch: per-chunk, per-group and per-row allocation shows here first.
// Serial (Parallelism 1), so allocs/op does not depend on GOMAXPROCS.
func BenchmarkExecOperators(b *testing.B) {
	operators := []struct {
		name, sql string
		groupBy   bool // reports ns per trans row
	}{
		{"scan_filter_select", `select tid, faid, qty * price as amt from trans where qty > 3 and year(date) > 1990`, false},
		{"fused_groupby", `select fpgid, year(date) as year, count(*) as cnt, sum(qty * price) as gross, min(price) as lo
			from trans where month(date) >= 6 group by fpgid, year(date)`, true},
		{"star_groupby_gsets", `select state, year(date) as year, count(*) as cnt, sum(qty * price) as value
			from trans, loc where flid = lid and country = 'USA'
			group by grouping sets((state, year(date)), (state), ())`, true},
		{"having_over_groupby", `select flid, year(date) as year, count(*) as cnt
			from trans group by flid, year(date) having count(*) > 3`, true},
		{"join_select", `select aid, status, qty * price * (1 - disc) as amt
			from trans, pgroup, acct
			where pgid = fpgid and faid = aid
			and price > 100 and disc > 0.1 and pgname = 'TV'`, false},
		{"select_over_groupby", `select flid, count(*) as busy_months
			from (select flid, year(date) as y, month(date) as m, count(*) as n
			      from trans group by flid, year(date), month(date)) mm
			where n > 5 group by flid`, true},
		// The hash loop itself: a string key behind a star probe, a table
		// of well over 10k groups at 100k rows, and the probe with nothing
		// filtered out before it or aggregated after it.
		{"groupby_string_key", `select city, count(*) as cnt from trans, loc where flid = lid group by city`, true},
		{"groupby_15k_groups", `select faid, flid, year(date) as year, count(*) as cnt, sum(price) as gross
			from trans group by faid, flid, year(date)`, true},
		{"star_probe_only", `select aid, status, qty * price * (1 - disc) as amt
			from trans, pgroup, acct where pgid = fpgid and faid = aid`, false},
		// DISTINCT's pair tables: Figure 13's Q11.3, which no summary table
		// serves, and ds11's scalar subquery, one group folded a strip at a
		// time.
		{"groupby_count_distinct", `select flid, year(date) as year, month(date) as month, count(distinct faid) as custcnt
			from trans group by flid, year(date), month(date)`, true},
		{"global_count_distinct", `select sum(qty * price) / count(distinct faid) as avg_spend from trans`, true},
		// A scoped recompute's lower box: MIN/MAX of the 64 groups one 64-row
		// DELETE touches, an OR of key tuples probed as a hash semi-join.
		{"keyset_filter", keysetSQL(64), true},
	}
	for _, scale := range []int{10_000, 100_000} {
		env := bench.NewEnv(scale, core.Options{})
		for _, op := range operators {
			g, err := qgm.BuildSQL(op.sql, env.Cat)
			if err != nil {
				b.Fatalf("%s: %v", op.name, err)
			}
			b.Run(op.name+"/"+strconv.Itoa(scale), func(b *testing.B) {
				// Result.Mode says vectorized as soon as one box is; the
				// observer's decline counter says whether every box was.
				o := obs.New()
				env.Engine.SetObserver(o)
				defer env.Engine.SetObserver(nil)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := env.Engine.RunCtx(context.Background(), g, exec.Config{Parallelism: 1}); err != nil {
						b.Fatal(err)
					}
				}
				if d, l := o.Counter(exec.CtrVecDeclined), o.Counter(exec.CtrVecLifted); d != 0 || l != 0 {
					b.Fatalf("%s: %d boxes declined to the row path, %d expressions lifted", op.name, d, l)
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

// BenchmarkE15_CatalogScaling measures rewrite-candidate selection latency as
// the AST catalog grows, with and without the signature index. The catalog is
// 64 disjoint single-table schemas with ASTs registered round-robin, so for
// the single-table probe query the index refuses all but every 64th candidate
// before the matcher runs.
func BenchmarkE15_CatalogScaling(b *testing.B) {
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
					if rw.RewriteBestCost(g, asts, env.Store) == nil {
						b.Fatal("wide query did not rewrite")
					}
				}
			})
		}
	}
}
