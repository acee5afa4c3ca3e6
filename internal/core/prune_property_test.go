package core_test

// Property-based conservatism testing for the candidate-pruning signature
// index: for every (query, AST) pair, the set of candidates the index admits
// must be a superset of the set the full matcher accepts — pruning may only
// refute, never drop a legitimate rewrite. This is the fuzz-style randomized
// companion to the paper-suite sweep in internal/bench.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/qgm"
)

// plainQueries are GROUP-BY-free queries mixed into the random sweep so the
// root-kind rule (R1) is exercised in both directions.
var plainQueries = []string{
	"select faid, qty from trans where qty > 2",
	"select faid, flid, price from trans where year(date) > 1990",
	"select cid, cname from cust",
	"select state, city from loc where country = 'USA'",
}

func TestPrunePropertyRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	e := newEnv(t, 300)
	rng := rand.New(rand.NewSource(20000521))
	g := &qgen{rng: rng}

	const trials = 600
	pruned, admitted, matched := 0, 0, 0
	for i := 0; i < trials; i++ {
		astSQL := g.genAST()
		querySQL := g.genQuery()
		if rng.Intn(6) == 0 {
			querySQL = plainQueries[rng.Intn(len(plainQueries))]
		}

		astName := fmt.Sprintf("prune%d", i)
		ca, err := e.rw.CompileAST(catalog.ASTDef{Name: astName, SQL: astSQL})
		if err != nil {
			t.Fatalf("trial %d: compile AST %q: %v", i, astSQL, err)
		}

		q, err := qgm.BuildSQL(querySQL, e.cat)
		if err != nil {
			t.Fatalf("trial %d: build %q: %v", i, querySQL, err)
		}
		qsig := core.ComputeSignature(e.cat, q)
		if qsig == nil {
			t.Fatalf("trial %d: query signature should always be computable over the star schema", i)
		}
		admit := e.cat.SignatureAdmits(ca.Sig, qsig)

		// Matching mutates the query graph (compensation boxes), so run it on
		// the graph we just built; each trial builds a fresh one.
		matches := core.NewMatcher(e.cat, q, ca.Graph, core.Options{}).RunCtx(context.Background())

		if len(matches) > 0 {
			matched++
			if !admit {
				t.Fatalf("trial %d: UNSOUND PRUNE — matcher accepts but index refuses\nquery: %s\nast:   %s\nqsig: %+v\nasig: %+v",
					i, querySQL, astSQL, qsig, ca.Sig)
			}
		}
		if admit {
			admitted++
		} else {
			pruned++
		}
	}
	t.Logf("randomized sweep: %d trials, %d matched, %d admitted, %d pruned", trials, matched, admitted, pruned)
	if pruned == 0 {
		t.Fatal("sweep never pruned anything: the index is vacuous for this generator")
	}
}

// TestPruneSignatureRules pins each refutation rule with a directed pair: an
// AST the rule must prune and a near-identical one it must admit.
func TestPruneSignatureRules(t *testing.T) {
	e := newEnv(t, 100)
	mustSig := func(sql string) *catalog.Signature {
		g, err := qgm.BuildSQL(sql, e.cat)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		sig := core.ComputeSignature(e.cat, g)
		if sig == nil {
			t.Fatalf("nil signature for %q", sql)
		}
		return sig
	}
	compile := func(name, sql string) *core.CompiledAST {
		ca, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		return ca
	}

	gbAST := compile("r1gb", "select faid as f, count(*) as c from trans group by faid")
	plainQ := mustSig("select faid, qty from trans where qty > 2")
	if e.cat.SignatureAdmits(gbAST.Sig, plainQ) {
		t.Error("R1: GROUP BY-rooted AST must be pruned for a GROUP BY-free query")
	}

	custAST := compile("r2cust", "select cid as c, count(*) as n from cust group by cid")
	transQ := mustSig("select faid, count(*) as c from trans group by faid")
	if e.cat.SignatureAdmits(custAST.Sig, transQ) {
		t.Error("R2: AST over disjoint tables must be pruned")
	}

	// R3: trans ⋈ loc AST against a trans-only query — loc is an FK parent of
	// trans over non-nullable columns, so it is a legitimate lossless extra
	// and must be ADMITTED; cust is reachable by no FK from trans, so a
	// trans ⋈ cust AST must be pruned.
	locAST := compile("r3loc", "select faid as f, count(*) as c from trans, loc where flid = lid group by faid")
	if !e.cat.SignatureAdmits(locAST.Sig, transQ) {
		t.Error("R3: FK-droppable extra table must be admitted")
	}
	custJoinAST := compile("r3cust", "select faid as f, count(*) as c from trans, cust where qty = cid group by faid")
	if e.cat.SignatureAdmits(custJoinAST.Sig, transQ) {
		t.Error("R3: non-droppable extra table must be pruned")
	}

	// R4: an AST exposing only MIN/MAX cannot serve a query whose every GROUP
	// BY box needs a non-distinct COUNT; one with a COUNT column can.
	minmaxAST := compile("r4minmax", "select faid as f, min(price) as mn, max(price) as mx from trans group by faid")
	countQ := mustSig("select faid, count(*) as c from trans group by faid")
	if e.cat.SignatureAdmits(minmaxAST.Sig, countQ) {
		t.Error("R4: SUM/COUNT-free AST must be pruned for a COUNT query")
	}
	minmaxQ := mustSig("select faid, min(price) as mn from trans group by faid")
	if !e.cat.SignatureAdmits(minmaxAST.Sig, minmaxQ) {
		t.Error("R4: SUM/COUNT-free AST must be admitted for a MIN-only query")
	}
}

// TestPruneDisabledByOption: Options.NoPrune must bypass the index entirely
// (the ablation/benchmark escape hatch).
func TestPruneDisabledByOption(t *testing.T) {
	e := newEnv(t, 100)
	rw := core.NewRewriter(e.cat, core.Options{NoPrune: true})
	ca, err := rw.CompileAST(catalog.ASTDef{Name: "nopr", SQL: "select cid as c, count(*) as n from cust group by cid"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.engine.Run(ca.Graph)
	if err != nil {
		t.Fatal(err)
	}
	e.store.PutRows(ca.Table, res.Rows)
	q, err := qgm.BuildSQL("select cid, count(*) as n from cust group by cid", e.cat)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite rather than RewriteOrFallback: the AST has as many groups as
	// cust has rows, so the cost model sees no gain; NoPrune is about the
	// matching gate, not the cost gate.
	if rw.Rewrite(q, ca) == nil {
		t.Fatal("NoPrune rewriter should still rewrite a matching pair")
	}
	// The selection loop matches every usable candidate: one over another
	// table is tried, not pruned as the index prunes it by default.
	other, err := rw.CompileAST(catalog.ASTDef{Name: "noprloc", SQL: "select lid, count(*) as n from loc group by lid"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := qgm.BuildSQL("select cid, count(*) as n from cust group by cid", e.cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rw     *core.Rewriter
		pruned bool
	}{{e.rw, true}, {rw, false}} {
		if _, _, ds := c.rw.ExplainRewrite(context.Background(), q2, []*core.CompiledAST{other}, e.store); ds[0].Pruned != c.pruned {
			t.Errorf("NoPrune=%v: pruned = %v", c.rw.Options().NoPrune, ds[0].Pruned)
		}
	}
}

// TestSignatureOfAnUnknownTableIsNil: a graph over a table the catalog does
// not know — a plan that reads a summary table — has no signature, which
// every index check reads as "admit".
func TestSignatureOfAnUnknownTableIsNil(t *testing.T) {
	e := newEnv(t, 300)
	ast := e.registerAST(t, "sigx", bench.ASTDefs["ast7"])
	g, err := qgm.BuildSQL(bench.Queries["q7"], e.cat)
	if err != nil {
		t.Fatal(err)
	}
	if core.ComputeSignature(e.cat, g) == nil {
		t.Fatal("q7 over the star schema has no signature")
	}
	if e.rw.Rewrite(g, ast) == nil {
		t.Fatal("q7 did not rewrite against ast7")
	}
	if sig := core.ComputeSignature(e.cat, g); sig != nil {
		t.Fatalf("a plan reading sigx has a signature: %+v", sig)
	}
}
