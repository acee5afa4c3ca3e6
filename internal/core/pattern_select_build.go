package core

import (
	"fmt"

	"repro/internal/qgm"
)

// buildSelectComp constructs the compensation for the SELECT patterns without
// grouping child compensation (§4.1.1, §4.2.3): a single SELECT box over the
// subsumer that rejoins the rejoin children, re-applies all unsatisfied
// subsumee and child-compensation predicates, and derives the subsumee's
// output columns.
func (m *Matcher) buildSelectComp(e, r *qgm.Box, a *assignment, t *translator, eqR *qgm.Equiv, pool []*poolEntry) (*Match, error) {
	// Collect rejoin quantifiers: the subsumee's own rejoin children plus the
	// rejoin children inside SELECT-only child compensations (§4.2.3: the
	// compensation "includes the rejoin children (if any)").
	rejoins := append([]*qgm.Quantifier(nil), a.rejoins...)
	for _, p := range a.pairs {
		if p.m.Exact {
			continue
		}
		for _, b := range p.m.Stack {
			for _, q := range b.Quantifiers {
				if q != p.m.SubQ {
					rejoins = append(rejoins, q)
				}
			}
		}
	}

	c := m.newCompBox(qgm.SelectBox, compLabel("Sel"))
	qSub := m.newQuant(qgm.ForEach, r, "")
	rmap, cloneQs := m.cloneRejoins(rejoins)
	c.Quantifiers = append([]*qgm.Quantifier{qSub}, cloneQs...)

	d := &deriver{
		eq:        eqR,
		sources:   subsumerSources(r, qSub, nil),
		rejoinMap: rmap,
		leafFirst: m.opts.LeafFirstDerivation,
	}

	// Conditions 3 and 5: re-apply unsatisfied predicates, derived from the
	// subsumer's outputs and rejoin columns.
	for _, pe := range pool {
		if pe.satisfied {
			continue
		}
		dp, err := d.derive(pe.rspace)
		if err != nil {
			return nil, fmt.Errorf("conditions 3 and 5 (§4.1.1/§4.2.3), re-applying a predicate: %w", err)
		}
		c.Preds = append(c.Preds, dp)
	}

	// Condition 4: every subsumee output column must be derivable.
	for _, col := range e.Cols {
		dp, err := d.derive(t.translate(col.Expr))
		if err != nil {
			return nil, fmt.Errorf("condition 4 (§4.1.1), deriving column %s: %w", col.Name, err)
		}
		c.Cols = append(c.Cols, qgm.QCL{Name: col.Name, Expr: dp})
	}

	// Exactness: empty compensation modulo projection (footnote 5).
	if len(rejoins) == 0 && len(c.Preds) == 0 {
		colMap := make([]int, len(c.Cols))
		pure := true
		seen := map[int]bool{}
		for i, col := range c.Cols {
			cr, ok := col.Expr.(*qgm.ColRef)
			if !ok || cr.Q != qSub || seen[cr.Col] {
				pure = false
				break
			}
			seen[cr.Col] = true
			colMap[i] = cr.Col
		}
		if pure {
			return &Match{Subsumee: e, Subsumer: r, Exact: true, ColMap: colMap}, nil
		}
	}

	mm := &Match{Subsumee: e, Subsumer: r, Stack: []*qgm.Box{c}, SubQ: qSub}
	mm.indexComp()
	return mm, nil
}

// buildSelectGBComp constructs the compensation for §4.2.4: the grouping
// child compensation stack is pulled up above the subsumer (cloned level by
// level, deriving the bottom level from the subsumer's outputs and creating
// pass-through columns on demand, per the §6 walkthrough of Figure 11), and a
// final SELECT box compensates the subsumee's own predicates and columns.
func (m *Matcher) buildSelectGBComp(e, r *qgm.Box, a *assignment, gp *childPair, t *translator, eqR *qgm.Equiv, pool []*poolEntry) (*Match, error) {
	pu, err := newPullup(m, r, gp, eqR)
	if err != nil {
		return nil, err
	}

	// Re-apply unsatisfied child-compensation predicates at their own level
	// (every other child's compensation is a projection: see matchSelect);
	// remember unsatisfied subsumee predicates for the top box.
	var ePreds []qgm.Expr
	for _, pe := range pool {
		switch {
		case pe.satisfied:
		case pe.level < 0:
			ePreds = append(ePreds, pe.orig)
		default:
			if err := pu.addPredAt(pe.level, pe.orig); err != nil {
				return nil, err
			}
		}
	}

	// Top compensation box: rejoins the subsumee's rejoin children, applies
	// the remaining subsumee predicates, and derives the output columns.
	top := m.newCompBox(qgm.SelectBox, compLabel("Sel"))
	qTop := m.newQuant(qgm.ForEach, pu.topBox(), "")
	rmapE, cloneQs := m.cloneRejoins(a.rejoins)
	top.Quantifiers = append([]*qgm.Quantifier{qTop}, cloneQs...)

	var remap func(x qgm.Expr) (qgm.Expr, error)
	remap = func(x qgm.Expr) (qgm.Expr, error) {
		c, isRef := x.(*qgm.ColRef)
		if !isRef {
			return qgm.MapChildren(x, remap)
		}
		if q, cloned := rmapE[c.Q.ID]; cloned {
			return &qgm.ColRef{Q: q, Col: c.Col}, nil
		}
		p := a.byEQ[c.Q.ID]
		var idx int
		var err error
		if p == gp {
			idx, err = pu.ensureOrig(len(pu.src)-1, c.Col)
		} else {
			// Exactly matched (or projection-only) sibling child: translate
			// to subsumer space and thread the value up through the stack.
			idx, err = pu.ensureRspace(len(pu.src)-1, t.translateQNC(p, c.Col))
		}
		if err != nil {
			return nil, err
		}
		return &qgm.ColRef{Q: qTop, Col: idx}, nil
	}

	for _, p := range ePreds {
		dp, err := remap(p)
		if err != nil {
			return nil, err
		}
		top.Preds = append(top.Preds, dp)
	}
	for _, col := range e.Cols {
		dp, err := remap(col.Expr)
		if err != nil {
			return nil, err
		}
		top.Cols = append(top.Cols, qgm.QCL{Name: col.Name, Expr: dp})
	}

	stack := append(pu.stack(), top)
	mm := &Match{Subsumee: e, Subsumer: r, Stack: stack, SubQ: pu.qSub}
	mm.indexComp()
	return mm, nil
}
