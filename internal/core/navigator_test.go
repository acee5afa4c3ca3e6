package core_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/qgm"
	"repro/internal/workload"
)

// TestNavigatorTriesChildPairsFirst is the navigator's order property (§3):
// over every paper pairing, and every DS statement against every summary
// table, the decision log tries each box pair at most once and never before a
// pair of its children. Labels name boxes uniquely within one graph, so the
// log's labels identify the pairs.
func TestNavigatorTriesChildPairsFirst(t *testing.T) {
	cat := catalog.New()
	workload.Schema(cat)
	rw := core.NewRewriter(cat, core.Options{})
	asts := map[string]*core.CompiledAST{}
	compile := func(name, sql string) {
		ca, err := rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		asts[name] = ca
	}
	for name, sql := range bench.ASTDefs {
		compile(name, sql)
	}
	for _, d := range workload.DSASTs {
		compile(d.Name, d.SQL)
	}

	type run struct{ name, sql, ast string }
	var runs []run
	for _, p := range bench.Pairings() {
		runs = append(runs, run{p.Query, bench.Queries[p.Query], p.AST})
	}
	for _, q := range workload.DSQueries {
		for name := range asts {
			runs = append(runs, run{q.Name, q.SQL, name})
		}
	}
	for _, r := range runs {
		g, err := qgm.BuildSQL(r.sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		eBoxes, rBoxes := byLabel(t, g), byLabel(t, asts[r.ast].Graph)
		type pair struct{ e, r string }
		at := map[pair]int{}
		log := rw.Explain(context.Background(), g, asts[r.ast])
		for i, te := range log {
			p := pair{te.Subsumee, te.Subsumer}
			if _, twice := at[p]; twice {
				t.Errorf("%s vs %s: pair %s vs %s tried twice", r.name, r.ast, p.e, p.r)
			}
			at[p] = i
		}
		for i, te := range log {
			for _, qe := range eBoxes[te.Subsumee].Quantifiers {
				for _, qr := range rBoxes[te.Subsumer].Quantifiers {
					if j, tried := at[pair{qe.Box.Label, qr.Box.Label}]; tried && j > i {
						t.Errorf("%s vs %s: %s vs %s tried before its child pair %s vs %s",
							r.name, r.ast, te.Subsumee, te.Subsumer, qe.Box.Label, qr.Box.Label)
					}
				}
			}
		}
	}
}

// byLabel indexes a graph's boxes by label, failing on a repeated label.
func byLabel(t *testing.T, g *qgm.Graph) map[string]*qgm.Box {
	t.Helper()
	out := map[string]*qgm.Box{}
	for _, b := range g.Boxes() {
		if _, dup := out[b.Label]; dup {
			t.Fatalf("label %s names two boxes", b.Label)
		}
		out[b.Label] = b
	}
	return out
}

// TestNavigatorHonoursCancelledContext: a context cancelled before the sweep
// starts stops it before the first pair, so nothing is matched or logged.
func TestNavigatorHonoursCancelledContext(t *testing.T) {
	cat := catalog.New()
	workload.Schema(cat)
	rw := core.NewRewriter(cat, core.Options{})
	ast, err := rw.CompileAST(catalog.ASTDef{Name: "ast10", SQL: bench.ASTDefs["ast10"]})
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.BuildSQL(bench.Queries["q10"], cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if matches := core.NewMatcher(cat, g, ast.Graph, core.Options{}).RunCtx(ctx); len(matches) != 0 {
		t.Errorf("cancelled sweep returned %d root matches", len(matches))
	}
	if log := rw.Explain(ctx, g, ast); len(log) != 0 {
		t.Errorf("cancelled sweep tried pairs: %+v", log)
	}
}
