package core

import (
	"slices"
	"sort"

	"repro/internal/qgm"
)

// gbView is the matcher's view of a (possibly pseudo-) subsumee GROUP BY box:
// its grouping expressions and aggregate arguments translated into the
// subsumer-child space, plus its grouping-set structure. It abstracts over
// the three sources of subsumees: a query GROUP BY box over an exactly
// matched child (§4.1.2), over a child matched with SELECT compensation
// (§4.2.1), and the lowest GROUP BY box inside a child compensation during
// the recursive pattern (§4.2.2).
type gbView struct {
	box          *qgm.Box // the original box the view describes
	groupExprs   []qgm.Expr
	groupingSets [][]int
	cols         []gbCol
}

type gbCol struct {
	name     string
	isGroup  bool
	groupPos int
	agg      *qgm.Agg // aggregate spec (op/star/distinct); arg in argRspace
	argR     qgm.Expr // aggregate argument in subsumer-child space (nil when Star)
}

// matchGroupBy implements the GROUP BY/GROUP BY patterns. It dispatches on
// the shape of the child compensation: empty (§4.1.2), a single SELECT box
// (§4.2.1), or a stack containing GROUP BY boxes (§4.2.2, handled by a
// recursive core invocation plus copies of the upper compensation boxes and
// of the subsumee itself). Multidimensional grouping sets on either side are
// handled by the core via cuboid matching (§5.1, §5.2).
func (m *Matcher) matchGroupBy(e, r *qgm.Box) *Match {
	// Universal condition 1 holds: a GROUP BY box has one child, and the
	// navigator tries a pair only once a child pair matched.
	cE, cR := e.Child(), r.Child()
	mm := m.matchOf(cE, cR)
	rqc := r.Quantifiers[0]

	if !mm.hasGroupingComp() {
		// The child compensation is empty or one SELECT box.
		var childSel *qgm.Box
		if !mm.Exact {
			childSel = mm.Stack[0]
		}
		view := m.viewFromQueryGB(e, mm, rqc)
		res := m.matchGBCore(view, r, rqc, childSel, mm)
		if res == nil {
			return m.reject(e, r, "no subsumer cuboid satisfies the grouping/aggregate/pull-up conditions (§4.1.2/§4.2.1/§5)")
		}
		match := m.finishGBMatch(e, r, res)
		match.Pattern = gbPattern(view, r, mm.Exact)
		return match
	}

	// §4.2.2: the child compensation contains grouping. Recursively match the
	// lowest compensation GROUP BY box with the subsumer, then copy the upper
	// compensation boxes and the subsumee itself on top. Every compensation
	// stack starts with a SELECT over the subsumer.
	jg := slices.IndexFunc(mm.Stack, func(b *qgm.Box) bool { return b.Kind == qgm.GroupByBox })
	if jg != 1 {
		return m.reject(e, r, "more than one box below the lowest compensation GROUP BY: unsupported shape")
	}
	childSel := mm.Stack[0]
	view := m.viewFromCompGB(mm.Stack[jg], mm, rqc)
	res := m.matchGBCore(view, r, rqc, childSel, mm)
	if res == nil {
		return m.reject(e, r, "recursive match of the compensation GROUP BY with the subsumer failed (§4.2.2)")
	}

	// Copy the compensation boxes above the matched GROUP BY, re-pointed at
	// the intermediate compensation (positional: the intermediate
	// compensation's top produces mm.Stack[jg]'s columns in order).
	stack := res.stack
	prev := stack[len(stack)-1]
	for i := jg + 1; i < len(mm.Stack); i++ {
		prev = m.cloneStackBox(mm.Stack[i], mm.Stack[i-1], prev)
		stack = append(stack, prev)
	}
	// Copy the subsumee itself on top (GB-pC(N+1) in Figure 9).
	stack = append(stack, m.cloneStackBox(e, cE, prev))

	match := &Match{Subsumee: e, Subsumer: r, Stack: stack, SubQ: res.qSub, Pattern: "§4.2.2"}
	match.indexComp()
	return match
}

// gbPattern names the paper pattern a GROUP BY match was established under:
// the multidimensional patterns take precedence (a multi-grouping-set
// subsumee is §5.2, a cube AST serving a simple GROUP BY is §5.1), then the
// shape of the child compensation decides §4.1.2 (exact child) vs §4.2.1
// (SELECT-compensated child).
func gbPattern(view *gbView, r *qgm.Box, childExact bool) string {
	switch {
	case len(view.groupingSets) > 1:
		return "§5.2"
	case len(r.GroupingSets) > 1:
		return "§5.1"
	case childExact:
		return "§4.1.2"
	default:
		return "§4.2.1"
	}
}

// viewFromQueryGB builds the subsumee view for a query GROUP BY box whose
// child matched the subsumer's child (exactly or with SELECT compensation).
// The box's grouping columns and aggregate arguments are columns of its one
// child: qgm.Build computes every expression in the SELECT box below.
func (m *Matcher) viewFromQueryGB(e *qgm.Box, mm *Match, rqc *qgm.Quantifier) *gbView {
	p := &childPair{eq: e.Quantifiers[0], rq: rqc, m: mm}
	tr := func(expr qgm.Expr) qgm.Expr {
		return (&translator{}).translateQNC(p, expr.(*qgm.ColRef).Col)
	}
	return buildView(e, tr)
}

// viewFromCompGB builds the subsumee view for the lowest GROUP BY box inside
// a child compensation (§4.2.2): its expressions expand through the
// compensation boxes below it into subsumer-child space.
func (m *Matcher) viewFromCompGB(gb *qgm.Box, mm *Match, rqc *qgm.Quantifier) *gbView {
	tr := func(expr qgm.Expr) qgm.Expr {
		return expandCompExpr(mm, rqc, expr)
	}
	return buildView(gb, tr)
}

// buildView assembles a gbView, translating each grouping column and
// aggregate argument with tr. Every other column of a GROUP BY box is an
// aggregate, and every GROUP BY box has at least one grouping set.
func buildView(b *qgm.Box, tr func(qgm.Expr) qgm.Expr) *gbView {
	v := &gbView{box: b}
	posOf := map[int]int{}
	for pos, g := range b.GroupBy {
		v.groupExprs = append(v.groupExprs, tr(b.Cols[g].Expr))
		posOf[g] = pos
	}
	for i, c := range b.Cols {
		if b.IsGroupCol(i) {
			v.cols = append(v.cols, gbCol{name: c.Name, isGroup: true, groupPos: posOf[i]})
			continue
		}
		agg := c.Expr.(*qgm.Agg)
		col := gbCol{name: c.Name, agg: agg}
		if !agg.Star {
			col.argR = tr(agg.Arg)
		}
		v.cols = append(v.cols, col)
	}
	for _, gs := range b.GroupingSets {
		v.groupingSets = append(v.groupingSets, append([]int(nil), gs...))
	}
	return v
}

// gbCoreResult is the outcome of the core GROUP BY match: the compensation
// stack ([select] or [select, groupby]) whose top produces the view's columns
// in order, plus exactness information.
type gbCoreResult struct {
	stack  []*qgm.Box
	qSub   *qgm.Quantifier
	exact  bool
	colMap []int
}

// finishGBMatch packages a core result for a direct (non-recursive) GROUP BY
// match.
func (m *Matcher) finishGBMatch(e, r *qgm.Box, res *gbCoreResult) *Match {
	if res.exact {
		return &Match{Subsumee: e, Subsumer: r, Exact: true, ColMap: res.colMap}
	}
	match := &Match{Subsumee: e, Subsumer: r, Stack: res.stack, SubQ: res.qSub}
	match.indexComp()
	return match
}

// cloneStackBox clones one box of a compensation stack (or the subsumee
// itself), re-pointing references from oldChild to newChild positionally;
// every other quantifier of b is a rejoin and is cloned.
func (m *Matcher) cloneStackBox(b, oldChild, newChild *qgm.Box) *qgm.Box {
	label := "Sel"
	if b.Kind == qgm.GroupByBox {
		label = "GB"
	}
	clone := m.newCompBox(b.Kind, compLabel(label))
	clone.Regroup = b.Regroup
	qNew := m.newQuant(qgm.ForEach, newChild, "")
	clone.Quantifiers = []*qgm.Quantifier{qNew}

	var rejoinQs []*qgm.Quantifier
	for _, q := range b.Quantifiers {
		if q.Box != oldChild {
			rejoinQs = append(rejoinQs, q)
		}
	}
	rmap, cloned := m.cloneRejoins(rejoinQs)
	clone.Quantifiers = append(clone.Quantifiers, cloned...)

	remap := func(e qgm.Expr) qgm.Expr {
		return qgm.MapExpr(e, func(x qgm.Expr) qgm.Expr {
			c, isRef := x.(*qgm.ColRef)
			if !isRef {
				return x
			}
			if c.Q.Box == oldChild {
				return &qgm.ColRef{Q: qNew, Col: c.Col}
			}
			return &qgm.ColRef{Q: rmap[c.Q.ID], Col: c.Col}
		})
	}
	for _, col := range b.Cols {
		clone.Cols = append(clone.Cols, qgm.QCL{Name: col.Name, Expr: remap(col.Expr)})
	}
	for _, p := range b.Preds {
		clone.Preds = append(clone.Preds, remap(p))
	}
	clone.GroupBy = append([]int(nil), b.GroupBy...)
	for _, gs := range b.GroupingSets {
		clone.GroupingSets = append(clone.GroupingSets, append([]int(nil), gs...))
	}
	return clone
}

// cuboidPlan records how one subsumee grouping set maps onto one subsumer
// grouping set.
type cuboidPlan struct {
	rSet        int         // index into r.GroupingSets
	directMap   map[int]int // subsumee grouping position → subsumer grouping position
	exactSets   bool        // bijective direct mapping
	needRegroup bool
}

// matchGBCore implements the shared conditions and compensation construction
// of §4.1.2, §4.2.1, §5.1 and §5.2 for one subsumee view against the subsumer
// GROUP BY box r (child quantifier rqc), with an optional SELECT child
// compensation childSel belonging to child match mm.
func (m *Matcher) matchGBCore(view *gbView, r *qgm.Box, rqc *qgm.Quantifier, childSel *qgm.Box, mm *Match) *gbCoreResult {
	// Rejoin children of the SELECT child compensation.
	var rejoinQs []*qgm.Quantifier
	if childSel != nil {
		for _, q := range childSel.Quantifiers {
			if q != mm.SubQ {
				rejoinQs = append(rejoinQs, q)
			}
		}
	}
	// The paper's §4.2.1 pattern assumes aggregate arguments originate from
	// non-rejoin columns; its extended version relaxes this, and so do we:
	// deriveAgg handles rejoin-referencing arguments through the
	// derive-and-multiply-by-count rule (SUM/COUNT) or direct re-aggregation
	// (MIN/MAX/DISTINCT), which stays correct under join multiplicity.

	// Equivalences over the subsumer-child space: the child box's own output
	// equivalences, extended with equality predicates from the SELECT child
	// compensation (a rejoin predicate like flid = lid makes the rejoin
	// column and the subsumer column interchangeable — Figure 8).
	eqCR := outputEquiv(rqc)
	var pulledPreds []qgm.Expr
	if childSel != nil {
		for _, p := range childSel.Preds {
			rs := expandCompExpr(mm, rqc, p)
			pulledPreds = append(pulledPreds, rs)
			if b, ok := rs.(*qgm.Bin); ok && b.Op == "=" {
				l, lok := b.L.(*qgm.ColRef)
				r2, rok := b.R.(*qgm.ColRef)
				if lok && rok {
					eqCR.Union(l, r2)
				}
			}
		}
	}

	// Order candidate subsumer cuboids (smallest first per §5.1, unless the
	// ablation asks for declaration order).
	candOrder := make([]int, len(r.GroupingSets))
	for i := range candOrder {
		candOrder[i] = i
	}
	if !m.opts.FirstCuboid {
		sort.SliceStable(candOrder, func(a, b int) bool {
			return len(r.GroupingSets[candOrder[a]]) < len(r.GroupingSets[candOrder[b]])
		})
	}

	hasRejoin := len(rejoinQs) > 0
	rejoin1N := !hasRejoin || (!m.opts.AlwaysRegroup && m.rejoinsAre1N(childSel, rejoinQs))

	// planFor finds the best subsumer cuboid for one subsumee grouping set.
	planFor := func(gse []int, forbidRegroup bool) *cuboidPlan {
		inGSE := map[int]bool{}
		for _, p := range gse {
			inGSE[p] = true
		}
		for _, ri := range candOrder {
			gsr := r.GroupingSets[ri]
			plan := &cuboidPlan{rSet: ri, directMap: map[int]int{}}
			usedR := map[int]bool{}
			allDirect := true
			for _, p := range gse {
				found := -1
				for _, rpos := range gsr {
					rcol := r.GroupBy[rpos]
					if usedR[rpos] {
						continue
					}
					if qgm.ExprEqual(view.groupExprs[p], r.Cols[rcol].Expr, eqCR) {
						found = rpos
						break
					}
				}
				if found >= 0 {
					plan.directMap[p] = found
					usedR[found] = true
				} else {
					allDirect = false
				}
			}
			plan.exactSets = allDirect && len(usedR) == len(gsr)
			plan.needRegroup = !plan.exactSets || !rejoin1N
			if plan.needRegroup && forbidRegroup {
				continue
			}
			if !allDirect {
				// Remaining grouping expressions must be derivable from the
				// cuboid's grouping columns and/or rejoin columns (§4.2.1
				// condition 1).
				d := m.cuboidDeriver(r, nil, gsr, eqCR, rejoinQs, nil)
				ok := true
				for _, p := range gse {
					if _, direct := plan.directMap[p]; direct {
						continue
					}
					if !d.derivable(view.groupExprs[p]) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			// Slicing feasibility: every grouping column we must test for
			// NULL needs a non-nullable underlying expression.
			if len(r.GroupingSets) > 1 && !m.sliceable(r, gsr) {
				continue
			}
			// Pull-up condition (§4.2.1 condition 3): child-compensation
			// predicates must derive from this cuboid's grouping columns
			// and/or the rejoin columns.
			{
				d := m.cuboidDeriver(r, nil, gsr, eqCR, rejoinQs, nil)
				ok := true
				for _, p := range pulledPreds {
					if !d.derivable(p) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			// Aggregates must be coverable. Without regrouping they must
			// match subsumer aggregate columns directly; if they don't but
			// regrouping is allowed, fall back to a (trivial) regroup and use
			// the derivation rules.
			if !plan.needRegroup {
				direct := true
				for _, c := range view.cols {
					if c.isGroup {
						continue
					}
					if m.directAggCol(c, r, eqCR) < 0 {
						direct = false
						break
					}
				}
				if !direct {
					if forbidRegroup {
						continue
					}
					plan.needRegroup = true
				}
			}
			if plan.needRegroup {
				d := m.cuboidDeriver(r, nil, gsr, eqCR, rejoinQs, nil)
				dummy := &qgm.Quantifier{ID: -1, Box: r}
				ok := true
				for _, c := range view.cols {
					if c.isGroup {
						continue
					}
					if spec := m.deriveAgg(c, r, dummy, eqCR, d); spec == nil {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			return plan
		}
		return nil
	}

	multiSubsumee := len(view.groupingSets) > 1

	if !multiSubsumee {
		plan := planFor(view.groupingSets[0], false)
		if plan == nil {
			return nil
		}
		return m.buildGBComp(view, r, rqc, childSel, mm, rejoinQs, eqCR, []*cuboidPlan{plan}, view.groupingSets)
	}

	// §5.2: cube query with cube AST. First try matching every subsumee
	// cuboid independently without regrouping, under a globally consistent
	// column mapping.
	plans := make([]*cuboidPlan, 0, len(view.groupingSets))
	global := map[int]int{}
	consistent := true
	for _, gse := range view.groupingSets {
		plan := planFor(gse, true)
		if plan == nil {
			consistent = false
			break
		}
		for p, rpos := range plan.directMap {
			if prev, seen := global[p]; seen && prev != rpos {
				consistent = false
				break
			}
			global[p] = rpos
		}
		if !consistent {
			break
		}
		plans = append(plans, plan)
	}
	if consistent {
		// Pulled-up predicates must derive from columns present in *every*
		// selected cuboid, or they would misfire on NULL-padded rows.
		d := m.cuboidDeriver(r, nil, m.predSourceSet(plans, r), eqCR, rejoinQs, nil)
		for _, p := range pulledPreds {
			if !d.derivable(p) {
				consistent = false
				break
			}
		}
	}
	if consistent {
		return m.buildGBComp(view, r, rqc, childSel, mm, rejoinQs, eqCR, plans, view.groupingSets)
	}

	// Fallback: treat the subsumee as a simple GROUP BY over the union of its
	// grouping sets, then regroup with the subsumee's own grouping-set
	// structure.
	union := map[int]bool{}
	for _, gse := range view.groupingSets {
		for _, p := range gse {
			union[p] = true
		}
	}
	var ugse []int
	for p := range union {
		ugse = append(ugse, p)
	}
	sort.Ints(ugse)
	plan := planFor(ugse, false)
	if plan == nil {
		return nil
	}
	plan.needRegroup = true
	// "Regrouping is performed not by GSE, but by a multidimensional GROUP BY
	// box that has the same gs function as the subsumee" (§5.2).
	return m.buildGBComp(view, r, rqc, childSel, mm, rejoinQs, eqCR, []*cuboidPlan{plan}, view.groupingSets)
}

// sliceable checks that every subsumer grouping column whose NULL-ness must
// discriminate the selected cuboid has a non-NULL underlying value.
func (m *Matcher) sliceable(r *qgm.Box, gsr []int) bool {
	return cuboidSliceable(r, gsr)
}

// cuboidSliceable is the query-independent core of the sliceability test; the
// signature index also uses it to pre-classify cube ASTs (rule R5).
func cuboidSliceable(r *qgm.Box, gsr []int) bool {
	inSet := map[int]bool{}
	for _, pos := range gsr {
		inSet[pos] = true
	}
	for pos, col := range r.GroupBy {
		inAll := true
		for _, gs := range r.GroupingSets {
			if !containsPos(gs, pos) {
				inAll = false
				break
			}
		}
		if inAll {
			continue // never NULL-padded; no predicate needed
		}
		// A slicing predicate (IS NULL or IS NOT NULL) is required for this
		// column; a nullable underlying value would make it ambiguous.
		if _, nullable := qgm.InferType(r.Cols[col].Expr); nullable {
			return false
		}
	}
	return true
}

func containsPos(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// rejoinsAre1N reports whether every rejoin joins at most one row per
// subsumer row: the rejoin child is a base table whose equality-join columns
// contain a unique key (§4.2.1: "the rejoin is 1:N with the rejoin tables
// being the 1 side").
func (m *Matcher) rejoinsAre1N(childSel *qgm.Box, rejoinQs []*qgm.Quantifier) bool {
	for _, q := range rejoinQs {
		if q.Kind == qgm.Scalar {
			continue // scalar children never affect multiplicity
		}
		if q.Box.Kind != qgm.BaseTableBox {
			return false
		}
		var keyCols []string
		for _, p := range childSel.Preds {
			b, ok := p.(*qgm.Bin)
			if !ok || b.Op != "=" {
				continue
			}
			l, lok := b.L.(*qgm.ColRef)
			r, rok := b.R.(*qgm.ColRef)
			if !lok || !rok {
				continue
			}
			if l.Q == q && r.Q != q {
				keyCols = append(keyCols, q.Box.Table.Columns[l.Col].Name)
			} else if r.Q == q && l.Q != q {
				keyCols = append(keyCols, q.Box.Table.Columns[r.Col].Name)
			}
		}
		if !q.Box.Table.HasUniqueKey(keyCols) {
			return false
		}
	}
	return true
}

// cuboidDeriver builds a deriver whose sources are the grouping columns of
// the selected subsumer cuboid plus rejoin columns. qSub may be nil for
// feasibility checks (the derived output is discarded); rejoinMap may be nil,
// in which case rejoin references map to themselves (feasibility only).
func (m *Matcher) cuboidDeriver(r *qgm.Box, qSub *qgm.Quantifier, gsr []int, eqCR *qgm.Equiv, rejoinQs []*qgm.Quantifier, rejoinMap map[int]*qgm.Quantifier) *deriver {
	if qSub == nil {
		qSub = &qgm.Quantifier{ID: -1, Box: r}
	}
	cols := make([]int, len(gsr))
	for i, pos := range gsr {
		cols[i] = r.GroupBy[pos]
	}
	if rejoinMap == nil {
		rejoinMap = map[int]*qgm.Quantifier{}
		for _, q := range rejoinQs {
			rejoinMap[q.ID] = q
		}
	}
	return &deriver{
		eq:        eqCR,
		sources:   subsumerSources(r, qSub, cols),
		rejoinMap: rejoinMap,
		leafFirst: m.opts.LeafFirstDerivation,
	}
}
