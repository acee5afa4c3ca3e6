package qgmcheck_test

// Seeded-mutation tests: each test takes a plan the checker accepts, applies
// one deliberate corruption of the kind a clone/pull-up/compensation bug
// would produce, and asserts the checker rejects it under the expected named
// rule. Together with the clean-suite tests this pins both directions of the
// oracle: sound plans pass, corrupted plans fail with a diagnosis.

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
)

// rewritten builds the paper env, registers one AST, and returns the query's
// graph after a successful rewrite against it, plus the checker wired with
// the AST's definition.
func rewritten(t *testing.T, query, ast string) (*qgm.Graph, *qgmcheck.Checker) {
	t.Helper()
	env := bench.NewEnv(60, core.Options{})
	ca := env.MustRegisterAST(ast, bench.ASTDefs[ast])
	g, err := qgm.BuildSQL(bench.Queries[query], env.Cat)
	if err != nil {
		t.Fatalf("build %s: %v", query, err)
	}
	if res := env.RW.Rewrite(g, ca); res == nil {
		t.Fatalf("%s vs %s: rewrite did not apply", query, ast)
	}
	ck := &qgmcheck.Checker{ASTDefs: map[string]*qgm.Graph{ast: ca.Graph}}
	if vs := ck.Check(g); len(vs) > 0 {
		t.Fatalf("%s rewritten against %s not clean before mutation: %v", query, ast, vs)
	}
	return g, ck
}

// wantRule asserts the checker reports at least one violation under rule.
func wantRule(t *testing.T, ck *qgmcheck.Checker, g *qgm.Graph, rule string) {
	t.Helper()
	vs := ck.Check(g)
	for _, v := range vs {
		if v.Rule == rule {
			if v.Detail == "" {
				t.Errorf("rule %s fired without a diagnostic detail", rule)
			}
			return
		}
	}
	t.Errorf("expected a %s violation, got %d other(s): %v", rule, len(vs), vs)
}

// findBox returns the first box (bottom-up) satisfying pred.
func findBox(t *testing.T, g *qgm.Graph, what string, pred func(*qgm.Box) bool) *qgm.Box {
	t.Helper()
	for _, b := range g.Boxes() {
		if pred(b) {
			return b
		}
	}
	t.Fatalf("no box found: %s", what)
	return nil
}

// firstAgg returns the box's first aggregate output column's node.
func firstAgg(t *testing.T, b *qgm.Box) *qgm.Agg {
	t.Helper()
	for i, c := range b.Cols {
		if b.IsGroupCol(i) {
			continue
		}
		if a, ok := c.Expr.(*qgm.Agg); ok {
			return a
		}
	}
	t.Fatalf("box %s has no aggregate output", b.Label)
	return nil
}

func isRegroup(b *qgm.Box) bool { return b.Kind == qgm.GroupByBox && b.Regroup }

func isCompSelect(b *qgm.Box) bool {
	return b.Kind == qgm.SelectBox && strings.Contains(b.Label, "-C")
}

// Corruption 1: a column reference re-pointed at a quantifier the box does
// not own — the dangling-binding class a broken Clone/pullup leaves behind.
func TestRejectsDanglingColumnRef(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	root := g.Root
	foreign := &qgm.Quantifier{ID: 9999, Box: root}
	sel := findBox(t, g, "select box with outputs", func(b *qgm.Box) bool {
		return b.Kind == qgm.SelectBox && len(b.Cols) > 0
	})
	sel.Cols[0].Expr = &qgm.ColRef{Q: foreign, Col: 0}
	wantRule(t, ck, g, "binding/resolve")
}

// Corruption 2: a column ordinal beyond the producer's arity.
func TestRejectsOutOfRangeColumn(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	sel := findBox(t, g, "select box with a plain column ref", func(b *qgm.Box) bool {
		if b.Kind != qgm.SelectBox {
			return false
		}
		for _, c := range b.Cols {
			if _, ok := c.Expr.(*qgm.ColRef); ok {
				return true
			}
		}
		return false
	})
	for i, c := range sel.Cols {
		if cr, ok := c.Expr.(*qgm.ColRef); ok {
			sel.Cols[i].Expr = &qgm.ColRef{Q: cr.Q, Col: len(cr.Q.Box.Cols) + 7}
			break
		}
	}
	wantRule(t, ck, g, "binding/resolve")
}

// Corruption 3: AVG as a second-stage combiner (the paper's canonical invalid
// re-aggregation — AVG over SUM double-weights groups).
func TestRejectsAvgReaggregation(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	gb := findBox(t, g, "regrouping GROUP BY", isRegroup)
	firstAgg(t, gb).Op = "avg"
	wantRule(t, ck, g, "comp/reagg")
}

// Corruption 4: plain COUNT as a combiner (partial counts must re-aggregate
// as SUM; COUNT would count groups, not rows — Table 1 rule (a)).
func TestRejectsCountReaggregation(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	gb := findBox(t, g, "regrouping GROUP BY", isRegroup)
	a := firstAgg(t, gb)
	a.Op = "count"
	a.Distinct = false
	wantRule(t, ck, g, "comp/reagg")
}

// Corruption 5: MIN re-aggregating a SUM carrier column (wrong combiner for
// the carrier even though MIN itself is a valid second-stage operator).
func TestRejectsMinOverSumCarrier(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	gb := findBox(t, g, "regrouping GROUP BY", isRegroup)
	firstAgg(t, gb).Op = "min"
	wantRule(t, ck, g, "comp/reagg")
}

// Corruption 6: a NULL-slicing predicate re-targeted at an aggregate column
// of the cube AST — NULL-ness of an aggregate cannot identify a cuboid.
func TestRejectsNullSliceOnAggregateColumn(t *testing.T) {
	g, ck := rewritten(t, "q11_1", "ast11")
	var mutated bool
	for _, b := range g.Boxes() {
		if !isCompSelect(b) {
			continue
		}
		for _, p := range b.Preds {
			qgm.WalkExpr(p, func(x qgm.Expr) bool {
				if mutated {
					return false
				}
				if isn, ok := x.(*qgm.IsNull); ok {
					if cr, ok := isn.E.(*qgm.ColRef); ok {
						// ast11 output: flid, faid, year, month, cnt — 4 is the
						// aggregate.
						isn.E = &qgm.ColRef{Q: cr.Q, Col: 4}
						mutated = true
						return false
					}
				}
				return true
			})
		}
	}
	if !mutated {
		t.Fatal("no slicing predicate found to mutate")
	}
	wantRule(t, ck, g, "comp/null-slice")
}

// Corruption 7: slicing predicates deleted outright — rows from all four
// cuboids of ast11 flow through unsliced, conflating grouping sets.
func TestRejectsMissingSlicingPredicates(t *testing.T) {
	g, ck := rewritten(t, "q11_1", "ast11")
	sel := findBox(t, g, "compensation select with predicates", func(b *qgm.Box) bool {
		return isCompSelect(b) && len(b.Preds) > 0
	})
	sel.Preds = nil
	wantRule(t, ck, g, "comp/cuboid-pinned")
}

// Corruption 8: the equality predicates of a regroup-eliminating rejoin
// (§4.2.1 Example 2) deleted — without the unique-key join the rejoin
// multiplies pre-aggregated rows.
func TestRejectsRejoinWithoutUniqueKey(t *testing.T) {
	g, ck := rewritten(t, "q7", "ast7")
	sel := findBox(t, g, "compensation select with a rejoin", func(b *qgm.Box) bool {
		return isCompSelect(b) && len(b.Quantifiers) > 1
	})
	var kept []qgm.Expr
	for _, p := range sel.Preds {
		if b, ok := p.(*qgm.Bin); ok && b.Op == "=" {
			continue
		}
		kept = append(kept, p)
	}
	sel.Preds = kept
	wantRule(t, ck, g, "comp/rejoin-key")
}

// Corruption 9: a quantifier cycle (a box consuming its own ancestor).
func TestRejectsQuantifierCycle(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	leaf := findBox(t, g, "base table box", func(b *qgm.Box) bool {
		return b.Kind == qgm.BaseTableBox
	})
	parents := g.Parents()
	pe := parents[leaf.ID][0]
	pe.Quant.Box = g.Root
	wantRule(t, ck, g, "structure/cycle")
}

// Corruption 10: an aggregate node smuggled into a SELECT box output.
func TestRejectsAggregateOutsideGroupBy(t *testing.T) {
	g, ck := rewritten(t, "q4", "ast6")
	sel := findBox(t, g, "select box with outputs", func(b *qgm.Box) bool {
		return b.Kind == qgm.SelectBox && len(b.Cols) > 0
	})
	sel.Cols[0].Expr = &qgm.Agg{Op: "sum", Arg: sel.Cols[0].Expr}
	wantRule(t, ck, g, "agg/placement")
}

// Corruption 11: a de-canonicalized grouping set (unsorted positions), which
// would break cuboid matching's sorted-set comparisons. The rewritten cube
// queries collapse to single-cuboid plans, so this mutates an original
// grouping-sets query graph.
func TestRejectsNonCanonicalGroupingSets(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	g, err := qgm.BuildSQL(bench.Queries["q12_1"], env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	ck := &qgmcheck.Checker{}
	if vs := ck.Check(g); len(vs) > 0 {
		t.Fatalf("q12_1 not clean before mutation: %v", vs)
	}
	gb := findBox(t, g, "GROUP BY with a multi-column set", func(b *qgm.Box) bool {
		if b.Kind != qgm.GroupByBox {
			return false
		}
		for _, gs := range b.GroupingSets {
			if len(gs) >= 2 {
				return true
			}
		}
		return false
	})
	for _, gs := range gb.GroupingSets {
		if len(gs) >= 2 {
			gs[0], gs[1] = gs[1], gs[0]
			break
		}
	}
	wantRule(t, ck, g, "gsets/canonical")
}

// Corruption 12: a type-confused comparison (string column against an
// integer-typed expression).
func TestRejectsTypeConfusedComparison(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	g, err := qgm.BuildSQL(bench.Queries["q1"], env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	ck := &qgmcheck.Checker{}
	if vs := ck.Check(g); len(vs) > 0 {
		t.Fatalf("q1 not clean before mutation: %v", vs)
	}
	sel := findBox(t, g, "select with a comparison over a string column", func(b *qgm.Box) bool {
		for _, p := range b.Preds {
			if bin, ok := p.(*qgm.Bin); ok && bin.Op == "=" {
				if k, _ := qgm.InferType(bin.L); k == sqltypes.KindString {
					return true
				}
			}
		}
		return false
	})
	for _, p := range sel.Preds {
		if bin, ok := p.(*qgm.Bin); ok && bin.Op == "=" {
			if k, _ := qgm.InferType(bin.L); k == sqltypes.KindString {
				bin.R = &qgm.Bin{Op: "+", L: bin.L, R: bin.L} // string+string: also arith abuse
				break
			}
		}
	}
	wantRule(t, ck, g, "types/arith")
}

// Corruption 13: a scalar quantifier whose child grew a second output column
// (scalar subqueries must stay single-valued). Q10 over ast7 keeps its scalar
// subquery: ast7 has no totcnt, so the compensation re-evaluates it.
func TestRejectsWideScalarSubquery(t *testing.T) {
	g, ck := rewritten(t, "q10", "ast7")
	for _, b := range g.Boxes() {
		for _, q := range b.Quantifiers {
			if q.Kind == qgm.Scalar {
				q.Box.Cols = append(q.Box.Cols, q.Box.Cols[0])
				wantRule(t, ck, g, "binding/scalar")
				return
			}
		}
	}
	t.Fatal("no scalar quantifier in the q10 plan")
}

// Structural accepts a clean plan and rejects the pointer-identity corruption
// an ID-based check cannot see.
func TestStructuralRejectsSameIDTwin(t *testing.T) {
	g, _ := rewritten(t, "q4", "ast6")
	if err := qgmcheck.Structural(g); err != nil {
		t.Fatalf("Structural on clean plan: %v", err)
	}

	// Re-point a reference at a fabricated twin of its quantifier — same ID,
	// same child box, different pointer. That is exactly what a buggy clone
	// leaves behind; resolving by ID accepts it, pointer identity does not.
	mutated := false
	for _, b := range g.Boxes() {
		for i, c := range b.Cols {
			if cr, ok := c.Expr.(*qgm.ColRef); ok {
				twin := &qgm.Quantifier{ID: cr.Q.ID, Kind: cr.Q.Kind, Box: cr.Q.Box, Alias: cr.Q.Alias}
				b.Cols[i].Expr = &qgm.ColRef{Q: twin, Col: cr.Col}
				mutated = true
				break
			}
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("no plain column reference to re-point")
	}
	if err := qgmcheck.Structural(g); err == nil {
		t.Error("Structural accepted a same-ID foreign quantifier reference")
	}
}

// Corruptions 14–16: GROUP BY shape violations the structural gate alone must
// name (they came over from the deleted qgm.Validate's tests, whose other
// negative cases are corruptions 1, 2 and 10 above).
func TestStructuralRejectsGroupByShapeCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(gb *qgm.Box)
		rule    string
	}{
		{"predicate on a GROUP BY box", func(gb *qgm.Box) {
			gb.Preds = append(gb.Preds, qgm.NewConst(sqltypes.NewBool(true)))
		}, "structure/groupby"},
		{"grouping-set position out of range", func(gb *qgm.Box) {
			gb.GroupingSets = [][]int{{5}}
		}, "gsets/canonical"},
		{"non-aggregate extra output", func(gb *qgm.Box) {
			gb.Cols = append(gb.Cols, qgm.QCL{Name: "bad", Expr: &qgm.Bin{
				Op: "+",
				L:  &qgm.ColRef{Q: gb.Quantifiers[0], Col: 0},
				R:  qgm.NewConst(sqltypes.NewInt(1)),
			}})
		}, "structure/groupby"},
	}
	env := bench.NewEnv(60, core.Options{})
	for _, tc := range cases {
		g, err := qgm.BuildSQL("select faid, count(*) as c from trans group by faid", env.Cat)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(g.Root.Child())
		err = qgmcheck.Structural(g)
		if err == nil || !strings.Contains(err.Error(), tc.rule) {
			t.Errorf("%s: want a %s violation, got %v", tc.name, tc.rule, err)
		}
	}
}

// Every statement shape the builder produces — and its clone — passes the
// structural gate.
func TestBuiltAndClonedGraphsStructural(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	for _, sql := range []string{
		"select tid, qty from trans where qty > 1",
		"select faid, count(*) as c from trans group by faid having count(*) > 2",
		"select faid, flid, count(*) as c from trans group by rollup(faid, flid)",
		"select distinct faid, flid from trans",
		"select tid, (select count(*) from loc) as n from trans",
		"select y, count(*) as c from (select year(date) as y from trans) d group by y",
		"select state, count(*) as c from trans, loc where flid = lid and qty > 2 group by state having count(*) > 1",
	} {
		g, err := qgm.BuildSQL(sql, env.Cat)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		if err := qgmcheck.Structural(g); err != nil {
			t.Errorf("Structural(%q): %v", sql, err)
		}
		if err := qgmcheck.Structural(g.Clone()); err != nil {
			t.Errorf("Structural(clone of %q): %v", sql, err)
		}
	}
}
