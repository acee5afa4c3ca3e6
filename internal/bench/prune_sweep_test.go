package bench

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/qgm"
	"repro/internal/workload"
)

// TestPruneSupersetPaperSuite is the exhaustive conservatism sweep for the
// candidate-pruning signature index over the paper workloads: for every paper
// query (q1–q12) and every TPC-D-style query, against every registered AST,
// whenever the full matcher finds a match the index must have admitted the
// pair. The index may only refute pairs the matcher would reject.
func TestPruneSupersetPaperSuite(t *testing.T) {
	env := NewEnv(400, core.Options{})
	type namedAST struct {
		name string
		ca   *core.CompiledAST
	}
	var asts []namedAST
	for name, sql := range ASTDefs {
		asts = append(asts, namedAST{name, env.MustRegisterAST(name, sql)})
	}
	for _, d := range workload.DSASTs {
		ca, err := env.RegisterAST(d.Name, d.SQL)
		if err != nil {
			t.Fatal(err)
		}
		asts = append(asts, namedAST{d.Name, ca})
	}

	queries := map[string]string{}
	for name, sql := range Queries {
		queries[name] = sql
	}
	for _, q := range workload.DSQueries {
		queries[q.Name] = q.SQL
	}

	pairs, matchedPairs, prunedPairs := 0, 0, 0
	for qname, sql := range queries {
		for _, a := range asts {
			// Matching mutates the query graph (compensation boxes), so each
			// pair gets a fresh build.
			g, err := qgm.BuildSQL(sql, env.Cat)
			if err != nil {
				t.Fatalf("build %s: %v", qname, err)
			}
			qsig := core.ComputeSignature(env.Cat, g)
			if qsig == nil {
				t.Fatalf("%s: query signature must be computable over catalog tables", qname)
			}
			admit := env.Cat.SignatureAdmits(a.ca.Sig, qsig)
			matches := core.NewMatcher(env.Cat, g, a.ca.Graph, core.Options{}).RunCtx(context.Background())
			pairs++
			if len(matches) > 0 {
				matchedPairs++
				if !admit {
					t.Errorf("UNSOUND PRUNE: %s matches %s but the index refused it\nqsig: %+v\nasig: %+v",
						qname, a.name, qsig, a.ca.Sig)
				}
			}
			if !admit {
				prunedPairs++
			}
		}
	}
	t.Logf("paper sweep: %d pairs, %d matched, %d pruned", pairs, matchedPairs, prunedPairs)
	if prunedPairs == 0 {
		t.Error("paper sweep never pruned a pair: the index is vacuous on the paper workloads")
	}
}

// TestWideCatalogAdmitsOneTableInN pins the shape BenchmarkE18_CatalogScaling
// times: over the wide catalog the signature index admits, for the probe
// query on t0, exactly the summary tables over t0, and one of them answers it.
func TestWideCatalogAdmitsOneTableInN(t *testing.T) {
	const tables = 4
	env := NewWideEnv(tables, 16)
	asts, err := RegisterWideASTs(env, 10, tables)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.BuildSQL(WideQuery, env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	qsig := core.ComputeSignature(env.Cat, g)
	for j, a := range asts {
		if got, want := env.Cat.SignatureAdmits(a.Sig, qsig), j%tables == 0; got != want {
			t.Errorf("w%03d (over t%d): admitted %v, want %v", j, j%tables, got, want)
		}
	}
	if env.RW.RewriteBestCostCtx(context.Background(), g, asts, env.Store) == nil {
		t.Error("the probe query did not rewrite")
	}
}
