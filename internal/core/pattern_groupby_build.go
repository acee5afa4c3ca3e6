package core

import (
	"repro/internal/qgm"
)

// aggSpec describes how a subsumee aggregate is recomputed after regrouping:
// the bottom compensation SELECT computes arg, and the compensation GROUP BY
// applies op (§4.1.2 rules (a)–(g)).
type aggSpec struct {
	op       string
	distinct bool
	arg      qgm.Expr
}

// directAggCol finds a subsumer aggregate column that computes exactly the
// subsumee aggregate (used when no regrouping happens: §4.1.2 condition 2,
// "every aggregate subsumee QCL matches with some subsumer aggregate QCL").
// COUNT(*) and COUNT(z) with non-nullable z are interchangeable. Every
// column of a GROUP BY box that is not a grouping column is an aggregate.
func (m *Matcher) directAggCol(c gbCol, r *qgm.Box, eqCR *qgm.Equiv) int {
	for k, col := range r.Cols {
		if r.IsGroupCol(k) {
			continue
		}
		ra := col.Expr.(*qgm.Agg)
		if countStarLike(c.agg, c.argR) && countStarLike(ra, ra.Arg) {
			return k
		}
		if ra.Op != c.agg.Op || ra.Distinct != c.agg.Distinct || ra.Star != c.agg.Star {
			continue
		}
		if c.agg.Star || qgm.ExprEqual(c.argR, ra.Arg, eqCR) {
			return k
		}
	}
	return -1
}

// countStarLike reports whether an aggregate counts every row: COUNT(*) or
// COUNT(z) with non-nullable non-distinct z.
func countStarLike(a *qgm.Agg, arg qgm.Expr) bool {
	if a.Op != "count" || a.Distinct {
		return false
	}
	if a.Star {
		return true
	}
	_, nullable := qgm.InferType(arg)
	return !nullable
}

// countRowsCol finds a subsumer column recording the size of each subsumer
// group (COUNT(*) or COUNT of a non-nullable column).
func countRowsCol(r *qgm.Box) int {
	for k, col := range r.Cols {
		if r.IsGroupCol(k) {
			continue
		}
		if ra := col.Expr.(*qgm.Agg); countStarLike(ra, ra.Arg) {
			return k
		}
	}
	return -1
}

// deriveAgg applies the aggregate derivation rules of §4.1.2 (a)–(g) for a
// regrouping compensation: it returns the aggregate to apply on top of the
// bottom SELECT box, or nil when the subsumee aggregate is not derivable.
// qSub references the subsumer; d derives from the selected cuboid's grouping
// columns and rejoins.
func (m *Matcher) deriveAgg(c gbCol, r *qgm.Box, qSub *qgm.Quantifier, eqCR *qgm.Equiv, d *deriver) *aggSpec {
	findAgg := func(pred func(*qgm.Agg) bool) int {
		for k, col := range r.Cols {
			if r.IsGroupCol(k) {
				continue
			}
			if pred(col.Expr.(*qgm.Agg)) {
				return k
			}
		}
		return -1
	}
	ref := func(k int) qgm.Expr { return &qgm.ColRef{Q: qSub, Col: k} }

	a := c.agg
	if a.Distinct {
		// Rules (f) and (g): COUNT/SUM(DISTINCT x) require x to derive from
		// grouping columns; the compensation re-aggregates with DISTINCT
		// (a strengthening of the paper's COUNT(y), which miscounts when the
		// subsumer groups by columns beyond x — see DESIGN.md). MIN/MAX
		// ignore DISTINCT.
		da, err := d.derive(c.argR)
		if err != nil {
			return nil
		}
		return &aggSpec{op: a.Op, distinct: a.Op == "count" || a.Op == "sum", arg: da}
	}
	switch a.Op {
	case "count":
		// Rules (a) and (b): COUNT(*) is SUM of any whole-group count;
		// COUNT(x) is SUM(COUNT(y)) for y ≡ x, or of a whole-group count when
		// x is non-nullable.
		if !a.Star {
			if k := findAgg(func(ra *qgm.Agg) bool {
				return ra.Op == "count" && !ra.Distinct && !ra.Star && qgm.ExprEqual(ra.Arg, c.argR, eqCR)
			}); k >= 0 {
				return &aggSpec{op: "sum", arg: ref(k)}
			}
			if _, nullable := qgm.InferType(c.argR); nullable {
				return nil
			}
		}
		if k := countRowsCol(r); k >= 0 {
			return &aggSpec{op: "sum", arg: ref(k)}
		}
		return nil

	case "sum":
		// Rule (c): SUM(x) is SUM(SUM(y)); or, when x derives from grouping
		// columns, SUM(x' * cnt) with the expression computed below the
		// regrouping.
		if k := findAgg(func(ra *qgm.Agg) bool {
			return ra.Op == "sum" && !ra.Distinct && qgm.ExprEqual(ra.Arg, c.argR, eqCR)
		}); k >= 0 {
			return &aggSpec{op: "sum", arg: ref(k)}
		}
		da, err := d.derive(c.argR)
		if err != nil {
			return nil
		}
		k := countRowsCol(r)
		if k < 0 {
			return nil
		}
		return &aggSpec{op: "sum", arg: &qgm.Bin{Op: "*", L: da, R: ref(k)}}

	default:
		// Rules (d) and (e): MIN/MAX re-aggregate their partial extremes, or
		// apply directly to values derived from grouping columns.
		if k := findAgg(func(ra *qgm.Agg) bool {
			return ra.Op == a.Op && qgm.ExprEqual(ra.Arg, c.argR, eqCR)
		}); k >= 0 {
			return &aggSpec{op: a.Op, arg: ref(k)}
		}
		da, err := d.derive(c.argR)
		if err != nil {
			return nil
		}
		return &aggSpec{op: a.Op, arg: da}
	}
}

// buildGBComp constructs the GROUP BY compensation: a bottom SELECT box over
// the subsumer (slicing predicates for cube subsumers, pulled-up child
// compensation predicates, rejoins, derived grouping expressions and
// aggregate arguments), followed by a regrouping GROUP BY box when required.
func (m *Matcher) buildGBComp(
	view *gbView, r *qgm.Box, rqc *qgm.Quantifier,
	childSel *qgm.Box, mm *Match,
	rejoinQs []*qgm.Quantifier, eqCR *qgm.Equiv,
	plans []*cuboidPlan, gsets [][]int,
) *gbCoreResult {
	regroup := false
	for _, p := range plans {
		if p.needRegroup {
			regroup = true
		}
	}

	s := m.newCompBox(qgm.SelectBox, compLabel("Sel"))
	qSub := m.newQuant(qgm.ForEach, r, "")
	rmap, cloneQs := m.cloneRejoins(rejoinQs)
	s.Quantifiers = append([]*qgm.Quantifier{qSub}, cloneQs...)

	// Slicing predicates (§5.1): select the chosen cuboid(s) out of the cube
	// subsumer by testing the NULL-padding of its grouping columns. Skipped
	// when the selected cuboids cover every subsumer grouping set.
	slicing := m.slicingPred(r, qSub, plans)
	if slicing != nil {
		s.Preds = append(s.Preds, slicing)
	}

	// Pull up the child compensation's predicates (§4.2.1 condition 3),
	// derived from the selected cuboid's grouping columns and rejoins. Here
	// and below, derivations and aggregate rules succeed: matchGBCore's plan
	// checked each against the same sources.
	if childSel != nil {
		dPred := m.cuboidDeriver(r, qSub, m.predSourceSet(plans, r), eqCR, rejoinQs, rmap)
		for _, p := range childSel.Preds {
			s.Preds = append(s.Preds, dPred.mustDerive(expandCompExpr(mm, rqc, p)))
		}
	}

	plan0 := plans[0]
	gsr := r.GroupingSets[plan0.rSet]
	dFull := m.cuboidDeriver(r, qSub, gsr, eqCR, rejoinQs, rmap)

	if !regroup {
		// Column-level pass-through: grouping columns map to the (globally
		// consistent) subsumer grouping columns, aggregates to matching
		// subsumer aggregate columns.
		global := map[int]int{}
		for _, p := range plans {
			for ep, rpos := range p.directMap {
				global[ep] = rpos
			}
		}
		colMap := make([]int, len(view.cols))
		for i, c := range view.cols {
			var rcol int
			if c.isGroup {
				rcol = r.GroupBy[global[c.groupPos]]
			} else {
				rcol = m.directAggCol(c, r, eqCR)
			}
			s.Cols = append(s.Cols, qgm.QCL{Name: c.name, Expr: &qgm.ColRef{Q: qSub, Col: rcol}})
			colMap[i] = rcol
		}
		exact := childSel == nil && len(s.Preds) == 0 && len(rejoinQs) == 0
		return &gbCoreResult{stack: []*qgm.Box{s}, qSub: qSub, exact: exact, colMap: colMap}
	}

	// Regrouping compensation: the bottom SELECT computes the grouping
	// expressions and aggregate arguments; the GROUP BY above re-groups by
	// the subsumee's grouping structure and applies the derivation rules.
	specs := make([]*aggSpec, len(view.cols))
	for i, c := range view.cols {
		if c.isGroup {
			var expr qgm.Expr
			if rpos, ok := plan0.directMap[c.groupPos]; ok {
				expr = &qgm.ColRef{Q: qSub, Col: r.GroupBy[rpos]}
			} else {
				expr = dFull.mustDerive(view.groupExprs[c.groupPos])
			}
			s.Cols = append(s.Cols, qgm.QCL{Name: c.name, Expr: expr})
			continue
		}
		spec := m.deriveAgg(c, r, qSub, eqCR, dFull)
		specs[i] = spec
		s.Cols = append(s.Cols, qgm.QCL{Name: c.name, Expr: spec.arg})
	}

	g := m.newCompBox(qgm.GroupByBox, compLabel("GB"))
	g.Regroup = true
	qS := m.newQuant(qgm.ForEach, s, "")
	g.Quantifiers = []*qgm.Quantifier{qS}
	posToCol := make([]int, len(view.groupExprs))
	for i, c := range view.cols {
		if c.isGroup {
			g.Cols = append(g.Cols, qgm.QCL{Name: c.name, Expr: &qgm.ColRef{Q: qS, Col: i}})
			posToCol[c.groupPos] = i
		} else {
			spec := specs[i]
			g.Cols = append(g.Cols, qgm.QCL{
				Name: c.name,
				Expr: &qgm.Agg{Op: spec.op, Arg: &qgm.ColRef{Q: qS, Col: i}, Distinct: spec.distinct},
			})
		}
	}
	for p := range view.groupExprs {
		g.GroupBy = append(g.GroupBy, posToCol[p])
	}
	for _, gs := range gsets {
		g.GroupingSets = append(g.GroupingSets, append([]int(nil), gs...))
	}
	return &gbCoreResult{stack: []*qgm.Box{s, g}, qSub: qSub}
}

// slicingPred builds the disjunction of per-plan slicing conjunctions, or nil
// when no slicing is needed (simple subsumer, or all cuboids selected).
func (m *Matcher) slicingPred(r *qgm.Box, qSub *qgm.Quantifier, plans []*cuboidPlan) qgm.Expr {
	if len(r.GroupingSets) <= 1 {
		return nil
	}
	selected := map[int]bool{}
	for _, p := range plans {
		selected[p.rSet] = true
	}
	if len(selected) == len(r.GroupingSets) {
		return nil
	}
	var disjuncts []qgm.Expr
	for ri := range r.GroupingSets {
		if !selected[ri] {
			continue
		}
		gsr := r.GroupingSets[ri]
		inSet := map[int]bool{}
		for _, pos := range gsr {
			inSet[pos] = true
		}
		var conj []qgm.Expr
		for pos, col := range r.GroupBy {
			if inSet[pos] {
				// IS NOT NULL needed only when some other set omits it.
				omitted := false
				for _, gs := range r.GroupingSets {
					if !containsPos(gs, pos) {
						omitted = true
						break
					}
				}
				if omitted {
					conj = append(conj, &qgm.IsNull{E: &qgm.ColRef{Q: qSub, Col: col}, Neg: true})
				}
			} else {
				conj = append(conj, &qgm.IsNull{E: &qgm.ColRef{Q: qSub, Col: col}})
			}
		}
		// conj is not empty: a position in every grouping set gets no
		// conjunct, and the sets are distinct, so some position is missing
		// from one of them.
		disjuncts = append(disjuncts, qgm.AndAll(conj))
	}
	return qgm.OrAll(disjuncts)
}

// predSourceSet returns the subsumer grouping positions usable for pulled-up
// predicates: with several selected cuboids, only columns present in all of
// them are safe (a predicate over a NULL-padded column would wrongly drop the
// row).
func (m *Matcher) predSourceSet(plans []*cuboidPlan, r *qgm.Box) []int {
	counts := map[int]int{}
	for _, p := range plans {
		for _, pos := range r.GroupingSets[p.rSet] {
			counts[pos]++
		}
	}
	var out []int
	for pos, n := range counts {
		if n == len(plans) {
			out = append(out, pos)
		}
	}
	return out
}
