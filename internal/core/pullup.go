package core

import (
	"fmt"

	"repro/internal/qgm"
)

// pullup clones a child-compensation stack above the subsumer box (§4.2.4 and
// the copy phase of §4.2.2). The bottom level re-derives its expressions from
// the subsumer's outputs; every level above is cloned with its references
// re-pointed to the clone below. Output columns are created on demand — the
// paper's pull-up tactic ("the QCLs that appear in Sel-2C1 are created there
// as a side effect of deriving the subsumee's expressions") — including
// pass-through columns threading subsumer outputs (such as Figure 11's totcnt)
// up through intermediate GROUP BY boxes.
type pullup struct {
	gp  *childPair
	src []*qgm.Box // original child-compensation stack, bottom to top

	clones  []*qgm.Box
	cloneQ  []*qgm.Quantifier // cloneQ[i] consumes clones[i] (used by level i+1 and the caller's top box)
	colMap  []map[int]int     // per level: original column → clone column
	rejoins []map[int]*qgm.Quantifier

	qSub *qgm.Quantifier
	d0   *deriver
}

// newPullup clones the stack skeleton (boxes, quantifiers, grouping
// structure). It fails when a grouping column cannot be derived from the
// subsumer's outputs. A compensation stack holds SELECT and GROUP BY boxes
// only, starting with a SELECT over the subsumer.
func newPullup(m *Matcher, r *qgm.Box, gp *childPair, eqR *qgm.Equiv) (*pullup, error) {
	src := gp.m.Stack
	pu := &pullup{
		gp: gp, src: src,
		clones:  make([]*qgm.Box, len(src)),
		cloneQ:  make([]*qgm.Quantifier, len(src)),
		colMap:  make([]map[int]int, len(src)),
		rejoins: make([]map[int]*qgm.Quantifier, len(src)),
	}
	for i := range src {
		pu.colMap[i] = map[int]int{}
	}

	// Level 0: a SELECT over the subsumer, with the original bottom level's
	// rejoin children cloned.
	c0 := m.newCompBox(qgm.SelectBox, compLabel("Sel"))
	pu.qSub = m.newQuant(qgm.ForEach, r, "")
	var rejoinQs []*qgm.Quantifier
	for _, q := range src[0].Quantifiers {
		if q != gp.m.SubQ {
			rejoinQs = append(rejoinQs, q)
		}
	}
	rmap0, clones0 := m.cloneRejoins(rejoinQs)
	c0.Quantifiers = append([]*qgm.Quantifier{pu.qSub}, clones0...)
	pu.rejoins[0] = rmap0
	pu.clones[0] = c0
	pu.cloneQ[0] = m.newQuant(qgm.ForEach, c0, "")
	pu.d0 = &deriver{
		eq:        eqR,
		sources:   subsumerSources(r, pu.qSub, nil),
		rejoinMap: rmap0,
		leafFirst: m.opts.LeafFirstDerivation,
	}

	for i := 1; i < len(src); i++ {
		b := src[i]
		if b.Kind == qgm.SelectBox {
			ci := m.newCompBox(qgm.SelectBox, compLabel("Sel"))
			var rq []*qgm.Quantifier
			for _, q := range b.Quantifiers {
				if q.Box != src[i-1] {
					rq = append(rq, q)
				}
			}
			rmap, cloned := m.cloneRejoins(rq)
			ci.Quantifiers = append([]*qgm.Quantifier{pu.cloneQ[i-1]}, cloned...)
			pu.rejoins[i] = rmap
			pu.clones[i] = ci
		} else {
			ci := m.newCompBox(qgm.GroupByBox, compLabel("GB"))
			ci.Regroup = b.Regroup
			ci.Quantifiers = []*qgm.Quantifier{pu.cloneQ[i-1]}
			pu.rejoins[i] = map[int]*qgm.Quantifier{}
			pu.clones[i] = ci
			// Grouping columns are cloned eagerly: they define the groups.
			// Each is a column of the level below.
			for _, g := range b.GroupBy {
				below, err := pu.ensureOrig(i-1, b.Cols[g].Expr.(*qgm.ColRef).Col)
				if err != nil {
					return nil, err
				}
				idx := len(ci.Cols)
				ci.Cols = append(ci.Cols, qgm.QCL{
					Name: b.Cols[g].Name,
					Expr: &qgm.ColRef{Q: pu.cloneQ[i-1], Col: below},
				})
				ci.GroupBy = append(ci.GroupBy, idx)
				pu.colMap[i][g] = idx
			}
			for _, gs := range b.GroupingSets {
				ci.GroupingSets = append(ci.GroupingSets, append([]int(nil), gs...))
			}
		}
		pu.cloneQ[i] = m.newQuant(qgm.ForEach, pu.clones[i], "")
	}
	return pu, nil
}

// topBox returns the top clone.
func (pu *pullup) topBox() *qgm.Box { return pu.clones[len(pu.clones)-1] }

// stack returns the clone chain bottom to top.
func (pu *pullup) stack() []*qgm.Box { return pu.clones }

// addPredAt re-applies predicate p of original stack level `level` at the
// same level of the clone, deriving the bottom level from the subsumer
// (§4.2.3 condition 5 / §4.2.4 pull-up conditions).
func (pu *pullup) addPredAt(level int, p qgm.Expr) error {
	var dv qgm.Expr
	var err error
	if level == 0 {
		dv, err = pu.d0.derive(expandCompExpr(pu.gp.m, pu.gp.rq, p))
	} else {
		dv, err = pu.remapLevel(p, level)
	}
	if err != nil {
		return err
	}
	pu.clones[level].Preds = append(pu.clones[level].Preds, dv)
	return nil
}

// ensureOrig makes original column j of stack level i available in the clone
// and returns its clone ordinal.
func (pu *pullup) ensureOrig(i, j int) (int, error) {
	if idx, ok := pu.colMap[i][j]; ok {
		return idx, nil
	}
	b := pu.src[i]
	var idx int
	switch {
	case i == 0:
		rs := expandCompExpr(pu.gp.m, pu.gp.rq, b.Cols[j].Expr)
		dv, err := pu.d0.derive(rs)
		if err != nil {
			return 0, err
		}
		idx = addQCL(pu.clones[0], b.Cols[j].Name, dv)
	case b.Kind == qgm.SelectBox:
		dv, err := pu.remapLevel(b.Cols[j].Expr, i)
		if err != nil {
			return 0, err
		}
		idx = addQCL(pu.clones[i], b.Cols[j].Name, dv)
	default:
		// A GROUP BY level: grouping columns were pre-mapped, so this is an
		// aggregate.
		agg := b.Cols[j].Expr.(*qgm.Agg)
		var arg qgm.Expr
		if !agg.Star {
			var err error
			arg, err = pu.remapLevel(agg.Arg, i)
			if err != nil {
				return 0, err
			}
		}
		idx = len(pu.clones[i].Cols)
		pu.clones[i].Cols = append(pu.clones[i].Cols, qgm.QCL{
			Name: b.Cols[j].Name,
			Expr: &qgm.Agg{Op: agg.Op, Arg: arg, Star: agg.Star, Distinct: agg.Distinct},
		})
	}
	pu.colMap[i][j] = idx
	return idx, nil
}

// remapLevel rewrites an expression of original stack level i into the
// clone's space: its references are to level i-1 or to the level's own
// rejoins.
func (pu *pullup) remapLevel(e qgm.Expr, i int) (qgm.Expr, error) {
	c, ok := e.(*qgm.ColRef)
	if !ok {
		return qgm.MapChildren(e, func(x qgm.Expr) (qgm.Expr, error) { return pu.remapLevel(x, i) })
	}
	if q, cloned := pu.rejoins[i][c.Q.ID]; cloned {
		return &qgm.ColRef{Q: q, Col: c.Col}, nil
	}
	below, err := pu.ensureOrig(i-1, c.Col)
	if err != nil {
		return nil, err
	}
	return &qgm.ColRef{Q: pu.cloneQ[i-1], Col: below}, nil
}

// ensureRspace threads a subsumer-space expression up to stack level i,
// deriving it from the subsumer at the bottom and creating pass-through
// columns in between. Through GROUP BY levels the value must either already
// be a grouping column or be constant per group (it derives from scalar
// subquery columns only, like Figure 11's totcnt) — in the latter case it is
// added as an extra grouping column, which the paper's NewQ10 does with
// "group by flid, totcnt".
func (pu *pullup) ensureRspace(i int, t qgm.Expr) (int, error) {
	if i == 0 {
		dv, err := pu.d0.derive(t)
		if err != nil {
			return 0, err
		}
		return addQCL(pu.clones[0], "", dv), nil
	}
	below, err := pu.ensureRspace(i-1, t)
	if err != nil {
		return 0, err
	}
	ref := &qgm.ColRef{Q: pu.cloneQ[i-1], Col: below}
	ci := pu.clones[i]
	if ci.Kind == qgm.SelectBox {
		return addQCL(ci, "", ref), nil
	}
	// A GROUP BY level reuses a grouping column that already carries the
	// value, as addQCL does at the other levels: a value threaded twice adds
	// no column.
	for _, g := range ci.GroupBy {
		if qgm.ExprEqual(ci.Cols[g].Expr, ref, nil) {
			return g, nil
		}
	}
	if !isConstRspace(t) {
		return 0, fmt.Errorf("core: cannot thread non-constant %s through GROUP BY compensation", t.String())
	}
	idx := len(ci.Cols)
	ci.Cols = append(ci.Cols, qgm.QCL{Name: uniqueColName(ci, "c"), Expr: ref})
	pos := len(ci.GroupBy)
	ci.GroupBy = append(ci.GroupBy, idx)
	// The new column joins every grouping set: being constant, it never
	// changes the groups and is never NULL-padded.
	for k := range ci.GroupingSets {
		ci.GroupingSets[k] = append(ci.GroupingSets[k], pos)
	}
	return idx, nil
}

// isConstRspace reports whether a subsumer-space expression is constant per
// evaluation: every column reference goes through a Scalar (scalar-subquery)
// quantifier.
func isConstRspace(t qgm.Expr) bool {
	ok := true
	qgm.WalkExpr(t, func(x qgm.Expr) bool {
		if c, isRef := x.(*qgm.ColRef); isRef {
			if c.Q == nil || c.Q.Kind != qgm.Scalar {
				ok = false
				return false
			}
		}
		if _, isAgg := x.(*qgm.Agg); isAgg {
			ok = false
			return false
		}
		return ok
	})
	return ok
}
