package qgmcheck_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// TestEveryRuleRejectsItsEdit is one row per way a checker rule fires: each
// row edits a clean artifact — a built SELECT graph (through Structural, or
// Check where the rule is not structural), a rewritten plan, a compiled
// DELETE/UPDATE — and the named rule must reject it, both in
// the violation list and in the error text.
func TestEveryRuleRejectsItsEdit(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	// graph builds select flid, sum(qty) as s, count(*) as c from trans where
	// qty > 1 group by flid: Base-trans ← Sel-Q ← GB-Q ← TopSel-Q.
	type graph struct {
		t             *testing.T
		g             *qgm.Graph
		base, sel, gb *qgm.Box
	}
	build := func(t *testing.T) graph {
		g, err := qgm.BuildSQL(`select flid, sum(qty) as s, count(*) as c from trans where qty > 1 group by flid`, env.Cat)
		if err != nil {
			t.Fatal(err)
		}
		gb := g.Root.Quantifiers[0].Box
		sel := gb.Quantifiers[0].Box
		return graph{t: t, g: g, base: sel.Quantifiers[0].Box, sel: sel, gb: gb}
	}
	// agg returns the GROUP BY box's aggregate named op.
	agg := func(t *testing.T, gb *qgm.Box, op string) *qgm.Agg {
		t.Helper()
		for _, c := range gb.Cols {
			if a, ok := c.Expr.(*qgm.Agg); ok && a.Op == op {
				return a
			}
		}
		t.Fatalf("%s has no %s aggregate", gb.Label, op)
		return nil
	}
	structural := func(edit func(graph)) func(*testing.T) error {
		return func(t *testing.T) error {
			x := build(t)
			edit(x)
			return qgmcheck.Structural(x.g)
		}
	}
	full := func(edit func(graph)) func(*testing.T) error {
		return func(t *testing.T) error {
			x := build(t)
			edit(x)
			return qgmcheck.AsError(qgmcheck.Check(x.g))
		}
	}
	// plan edits the first box pick chooses in query's plan rewritten
	// against ast, and checks it with the AST's definition.
	plan := func(query, ast string, pick func(*qgm.Box) bool, edit func(*testing.T, *qgm.Box)) func(*testing.T) error {
		return func(t *testing.T) error {
			g, ck := rewritten(t, query, ast)
			edit(t, findBox(t, g, "the box to edit", pick))
			return qgmcheck.AsError(ck.Check(g))
		}
	}
	slicing := func(b *qgm.Box) bool { return isCompSelect(b) && len(b.Preds) > 0 }
	rejoin := func(b *qgm.Box) bool { return isCompSelect(b) && len(b.Quantifiers) > 1 }
	dml := func(sql string, edit func(*qgm.DML) *qgm.DML) func(*testing.T) error {
		return func(t *testing.T) error {
			return qgmcheck.AsError(qgmcheck.CheckDML(edit(compileDML(t, env, sql))))
		}
	}
	intCol := func(x graph) qgm.Expr { return x.sel.Cols[0].Expr } // Sel-Q's flid

	for _, tc := range []struct {
		rule, edit string
		check      func(*testing.T) error
	}{
		{"structure/root", "a graph without a root", func(*testing.T) error { return qgmcheck.Structural(&qgm.Graph{}) }},
		{"structure/cycle", "Sel-Q reads the root", structural(func(x graph) { x.sel.Quantifiers[0].Box = x.g.Root })},
		{"structure/box-id", "two boxes share an ID", structural(func(x graph) { x.gb.ID = x.sel.ID })},
		{"structure/quantifier", "a quantifier without a box", structural(func(x graph) { x.sel.Quantifiers[0].Box = nil })},
		{"structure/quantifier", "a quantifier in two boxes", structural(func(x graph) {
			x.g.Root.Quantifiers = append(x.g.Root.Quantifiers, x.gb.Quantifiers[0])
		})},
		{"structure/quantifier", "two quantifiers share an ID", structural(func(x graph) {
			x.g.Root.Quantifiers = append(x.g.Root.Quantifiers, &qgm.Quantifier{ID: x.gb.Quantifiers[0].ID, Box: x.base})
		})},
		{"structure/base", "a base box without a table", structural(func(x graph) { x.base.Table = nil })},
		{"structure/base", "a base box with predicates", structural(func(x graph) { x.base.Preds = x.sel.Preds })},
		{"structure/base", "a base box of the wrong arity", structural(func(x graph) { x.base.Cols = x.base.Cols[:1] })},
		{"structure/select", "an output without an expression", structural(func(x graph) { x.sel.Cols[0].Expr = nil })},
		{"structure/select", "a select box that regroups", structural(func(x graph) { x.sel.Regroup = true })},
		{"structure/groupby", "a GROUP BY with two children", structural(func(x graph) {
			x.gb.Quantifiers = append(x.gb.Quantifiers, &qgm.Quantifier{ID: 9999, Box: x.base})
		})},
		{"structure/groupby", "a GROUP BY with a predicate", structural(func(x graph) { x.gb.Preds = x.sel.Preds })},
		{"structure/groupby", "a grouping ordinal past the arity", structural(func(x graph) { x.gb.GroupBy = append(x.gb.GroupBy, 99) })},
		{"structure/groupby", "a grouping ordinal twice", structural(func(x graph) { x.gb.GroupBy = append(x.gb.GroupBy, x.gb.GroupBy[0]) })},
		{"structure/groupby", "a computed grouping column", structural(func(x graph) {
			c := &x.gb.Cols[x.gb.GroupBy[0]]
			c.Expr = &qgm.Bin{Op: "+", L: c.Expr, R: c.Expr}
		})},
		{"structure/groupby", "no grouping sets", structural(func(x graph) { x.gb.GroupingSets = nil })},
		{"structure/box", "a box of no known kind", structural(func(x graph) { x.base.Kind = qgm.BoxKind(99) })},
		{"binding/resolve", "an unbound column reference", structural(func(x graph) { x.sel.Cols[0].Expr = &qgm.ColRef{} })},
		{"binding/scalar", "a scalar subquery of two columns", structural(func(x graph) {
			x.g.Root.Quantifiers = append(x.g.Root.Quantifiers, &qgm.Quantifier{ID: 9999, Kind: qgm.Scalar, Box: x.gb})
		})},
		{"agg/placement", "an aggregate in a select box", structural(func(x graph) { x.sel.Cols[0].Expr = &qgm.Agg{Op: "count", Star: true} })},
		{"agg/placement", "a nested aggregate", structural(func(x graph) {
			a := agg(x.t, x.gb, "sum")
			a.Arg = &qgm.Agg{Op: "sum", Arg: a.Arg}
		})},
		{"agg/op", "SUM(*)", structural(func(x graph) { agg(x.t, x.gb, "sum").Star = true })},
		{"agg/op", "COUNT without an argument or a star", structural(func(x graph) { agg(x.t, x.gb, "count").Star = false })},
		{"agg/op", "an unknown operator", plan("q4", "ast6", isRegroup, func(t *testing.T, gb *qgm.Box) { firstAgg(t, gb).Op = "median" })},
		{"gsets/canonical", "a grouping set twice", structural(func(x graph) { x.gb.GroupingSets = append(x.gb.GroupingSets, x.gb.GroupingSets[0]) })},
		{"types/pred", "an integer predicate", full(func(x graph) { x.sel.Preds[0] = intCol(x) })},
		{"types/logic", "AND over an integer", full(func(x graph) { x.sel.Preds[0] = &qgm.Bin{Op: "AND", L: x.sel.Preds[0], R: intCol(x)} })},
		{"comp/reagg", "AVG as a combiner", plan("q4", "ast6", isRegroup, func(t *testing.T, gb *qgm.Box) { firstAgg(t, gb).Op = "avg" })},
		{"comp/null-slice", "a NULL test on ast11's count", plan("q11_1", "ast11", slicing, func(_ *testing.T, s *qgm.Box) {
			s.Preds = append(s.Preds, &qgm.IsNull{E: &qgm.ColRef{Q: s.Quantifiers[0], Col: 4}}) // flid, faid, year, month, cnt
		})},
		{"comp/cuboid-pinned", "no slicing predicates", plan("q11_1", "ast11", slicing, func(_ *testing.T, s *qgm.Box) { s.Preds = nil })},
		{"comp/rejoin-key", "a rejoin without its key equality", plan("q7", "ast7", rejoin, func(_ *testing.T, s *qgm.Box) { s.Preds = nil })},
		{"dml/shape", "no statement", dml(`delete from trans`, func(*qgm.DML) *qgm.DML { return nil })},
		{"dml/shape", "no target table", dml(`delete from trans`, func(d *qgm.DML) *qgm.DML { d.Table = nil; return d })},
		{"dml/shape", "no quantifier", dml(`delete from trans`, func(d *qgm.DML) *qgm.DML { d.Q = nil; return d })},
		{"dml/shape", "a scalar quantifier", dml(`delete from trans`, func(d *qgm.DML) *qgm.DML { d.Q.Kind = qgm.Scalar; return d })},
		{"dml/binding", "a foreign quantifier", dml(`delete from trans where qty = 2`, func(d *qgm.DML) *qgm.DML {
			d.Where.(*qgm.Bin).L = &qgm.ColRef{Q: &qgm.Quantifier{ID: 9999, Box: d.Q.Box}}
			return d
		})},
		{"dml/agg", "an aggregate in SET", dml(`update trans set qty = 3`, func(d *qgm.DML) *qgm.DML {
			d.Sets[0].Expr = &qgm.Agg{Op: "sum", Arg: d.Sets[0].Expr}
			return d
		})},
		{"dml/where", "an integer WHERE", dml(`delete from trans where qty = 2`, func(d *qgm.DML) *qgm.DML { d.Where = d.Where.(*qgm.Bin).L; return d })},
		{"types/logic", "NOT over an integer in WHERE", dml(`delete from trans where qty = 2`, func(d *qgm.DML) *qgm.DML {
			d.Where = &qgm.Not{E: d.Where.(*qgm.Bin).L}
			return d
		})},
		{"dml/set", "an UPDATE without SET", dml(`update trans set qty = 3`, func(d *qgm.DML) *qgm.DML { d.Sets = nil; return d })},
		{"dml/set", "SET past the arity", dml(`update trans set qty = 3`, func(d *qgm.DML) *qgm.DML { d.Sets[0].Col = 99; return d })},
		{"dml/set", "SET without a value", dml(`update trans set qty = 3`, func(d *qgm.DML) *qgm.DML { d.Sets[0].Expr = nil; return d })},
	} {
		t.Run(tc.rule+"/"+tc.edit, func(t *testing.T) {
			err := tc.check(t)
			var ce *qgmcheck.CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("accepted (error %v)", err)
			}
			for _, v := range ce.Violations {
				if v.Rule == tc.rule {
					if !strings.Contains(err.Error(), tc.rule) {
						t.Errorf("the error does not name %s: %v", tc.rule, err)
					}
					return
				}
			}
			t.Errorf("no %s violation: %v", tc.rule, err)
		})
	}
}
