package core

import (
	"repro/internal/qgm"
)

// childPair is one matched (subsumee child, subsumer child) quantifier pair.
type childPair struct {
	eq, rq *qgm.Quantifier
	m      *Match
}

// assignment is the outcome of pairing the children of a candidate
// subsumee/subsumer box pair: matched pairs, rejoin children (subsumee
// children with no subsumer counterpart, §4 terminology) and extra children
// (subsumer children with no subsumee counterpart).
type assignment struct {
	pairs   []*childPair
	byEQ    map[int]*childPair // subsumee quantifier ID → pair
	rejoins []*qgm.Quantifier
	extras  []*qgm.Quantifier
}

// assignChildren computes the best injective pairing of subsumee children to
// subsumer children among established matches, preferring exact matches, via
// backtracking (child lists are small). Quantifier kinds must agree.
func (m *Matcher) assignChildren(e, r *qgm.Box) *assignment {
	eqs := e.Quantifiers
	rqs := r.Quantifiers

	// Candidate subsumer children per subsumee child.
	cands := make([][]int, len(eqs))
	for i, eq := range eqs {
		for j, rq := range rqs {
			if eq.Kind != rq.Kind {
				continue
			}
			if mm := m.matchOf(eq.Box, rq.Box); mm != nil {
				cands[i] = append(cands[i], j)
			}
		}
	}

	// Enumerate injective pairings (including leaving a child unmatched),
	// scoring by matched count then exact count.
	bestScore := -1
	var bestSel []int
	used := make([]bool, len(rqs))
	sel := make([]int, len(eqs))
	var rec func(i, matched, exact int)
	rec = func(i, matched, exact int) {
		if i == len(eqs) {
			score := matched*1000 + exact
			if score > bestScore {
				bestScore = score
				bestSel = append([]int(nil), sel...)
			}
			return
		}
		for _, j := range cands[i] {
			if used[j] {
				continue
			}
			used[j] = true
			sel[i] = j
			ex := 0
			if m.matchOf(eqs[i].Box, rqs[j].Box).Exact {
				ex = 1
			}
			rec(i+1, matched+1, exact+ex)
			used[j] = false
		}
		sel[i] = -1
		rec(i+1, matched, exact)
	}
	rec(0, 0, 0)

	a := &assignment{byEQ: map[int]*childPair{}}
	for i, eq := range eqs {
		j := bestSel[i]
		if j < 0 {
			a.rejoins = append(a.rejoins, eq)
			continue
		}
		p := &childPair{eq: eq, rq: rqs[j], m: m.matchOf(eq.Box, rqs[j].Box)}
		a.pairs = append(a.pairs, p)
		a.byEQ[eq.ID] = p
	}
	usedR := map[int]bool{}
	for _, p := range a.pairs {
		usedR[p.rq.ID] = true
	}
	for _, rq := range rqs {
		if !usedR[rq.ID] {
			a.extras = append(a.extras, rq)
		}
	}
	return a
}

// translator implements the expression translation of §6: rewriting a
// subsumee expression into the subsumer's context. Subsumee QNCs over
// exactly-matched children map directly to the subsumer's QNCs over the
// matching child; QNCs over children matched with compensation are expanded
// through the compensation's output expressions (Figure 15), bottoming out at
// the compensation's subsumer quantifier; QNCs over rejoin children are left
// in place (the compensation re-joins those children).
type translator struct {
	assign *assignment
}

// translate rewrites an expression over the subsumee's QNCs into the
// subsumer-children space. Rejoin references are preserved.
func (t *translator) translate(e qgm.Expr) qgm.Expr {
	return qgm.MapExprTopDown(e, func(x qgm.Expr) (qgm.Expr, bool) {
		c, ok := x.(*qgm.ColRef)
		if !ok {
			return nil, false
		}
		p := t.assign.byEQ[c.Q.ID]
		if p == nil {
			// Rejoin child (or a reference already outside the subsumee box):
			// keep as-is.
			return c, true
		}
		return t.translateQNC(p, c.Col), true
	})
}

// translateQNC translates one subsumee QNC over a matched child.
func (t *translator) translateQNC(p *childPair, col int) qgm.Expr {
	if p.m.Exact {
		return &qgm.ColRef{Q: p.rq, Col: p.m.ColMap[col]}
	}
	// Expand through the compensation: start from the compensation top's QCL
	// for this column (equivalent to the subsumee child's QCL, by the match
	// definition) and recursively expand compensation-internal references.
	return t.expandComp(p.m, p.rq, p.m.Comp().Cols[col].Expr)
}

// expandComp rewrites a compensation-internal expression into subsumer-
// children space: references into compensation boxes are expanded through
// their QCLs; references through the compensation's subsumer quantifier remap
// to the subsumer's own quantifier rq; rejoin references stay.
func (t *translator) expandComp(mm *Match, rq *qgm.Quantifier, e qgm.Expr) qgm.Expr {
	return qgm.MapExprTopDown(e, func(x qgm.Expr) (qgm.Expr, bool) {
		c, ok := x.(*qgm.ColRef)
		if !ok {
			return nil, false
		}
		if c.Q == mm.SubQ {
			return &qgm.ColRef{Q: rq, Col: c.Col}, true
		}
		if mm.isCompBox(c.Q.Box) {
			return t.expandComp(mm, rq, c.Q.Box.Cols[c.Col].Expr), true
		}
		// Rejoin reference within the compensation: keep.
		return c, true
	})
}

// expandCompExpr is the standalone form used by the recursive GROUP BY
// pattern (§4.2.2): it expands an expression that lives inside a compensation
// stack into subsumer-children space.
func expandCompExpr(mm *Match, rq *qgm.Quantifier, e qgm.Expr) qgm.Expr {
	t := &translator{}
	return t.expandComp(mm, rq, e)
}

// outputEquiv builds column-equivalence classes over the *output* columns of
// a box, lifted to QNC references through quantifier q. For a SELECT box,
// output columns are equivalent when their defining expressions are equal
// modulo the box's internal equality-predicate classes — this recognizes the
// paper's aid↔faid example (§4.1.1: "our algorithm is able to recognize such
// column equivalence").
func outputEquiv(q *qgm.Quantifier) *qgm.Equiv {
	eq := qgm.NewEquiv()
	b := q.Box
	var inner *qgm.Equiv
	switch b.Kind {
	case qgm.SelectBox:
		inner = qgm.EquivFromPreds(b.Preds)
	case qgm.GroupByBox:
		// Grouping columns are pass-throughs of the child box; lift the
		// child's output equivalence through them. Two columns stay equal
		// only when every grouping set keeps both or neither: a cuboid that
		// keeps one NULL-pads the other.
		childEq := outputEquiv(b.Quantifiers[0])
		for pi, i := range b.GroupBy {
			for pj := pi + 1; pj < len(b.GroupBy); pj++ {
				j := b.GroupBy[pj]
				if childEq.Same(b.Cols[i].Expr.(*qgm.ColRef), b.Cols[j].Expr.(*qgm.ColRef)) && paddedAlike(b, pi, pj) {
					eq.Union(&qgm.ColRef{Q: q, Col: i}, &qgm.ColRef{Q: q, Col: j})
				}
			}
		}
		return eq
	default:
		return eq
	}
	for i := range b.Cols {
		for j := i + 1; j < len(b.Cols); j++ {
			if qgm.ExprEqual(b.Cols[i].Expr, b.Cols[j].Expr, inner) {
				eq.Union(&qgm.ColRef{Q: q, Col: i}, &qgm.ColRef{Q: q, Col: j})
			}
		}
	}
	return eq
}

// paddedAlike reports whether every grouping set of b holds both or neither
// of the grouping positions pi and pj.
func paddedAlike(b *qgm.Box, pi, pj int) bool {
	for _, gs := range b.GroupingSets {
		if containsPos(gs, pi) != containsPos(gs, pj) {
			return false
		}
	}
	return true
}

// subsumerEquiv unions several equivalence relations (over disjoint QNC spaces)
// plus the subsumer box's own equality predicates into one relation usable
// for comparing translated subsumee expressions with subsumer expressions.
func subsumerEquiv(r *qgm.Box) *qgm.Equiv {
	eq := qgm.NewEquiv()
	// Equalities implied by each child's output structure (probing pairs of
	// columns is cheap: column counts are small).
	for _, q := range r.Quantifiers {
		child := outputEquiv(q)
		n := len(q.Box.Cols)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a := &qgm.ColRef{Q: q, Col: i}
				b := &qgm.ColRef{Q: q, Col: j}
				if child.Same(a, b) {
					eq.Union(a, b)
				}
			}
		}
	}
	// Equalities from the subsumer's own join predicates.
	if r.Kind == qgm.SelectBox {
		for _, p := range r.Preds {
			if b, ok := p.(*qgm.Bin); ok && b.Op == "=" {
				l, lok := b.L.(*qgm.ColRef)
				rr, rok := b.R.(*qgm.ColRef)
				if lok && rok {
					eq.Union(l, rr)
				}
			}
		}
	}
	return eq
}

// refersToAny reports whether e references any of the given quantifiers.
func refersToAny(e qgm.Expr, qs map[int]bool) bool {
	found := false
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		if c, ok := x.(*qgm.ColRef); ok && c.Q != nil && qs[c.Q.ID] {
			found = true
			return false
		}
		return !found
	})
	return found
}

func quantSet(qs ...*qgm.Quantifier) map[int]bool {
	out := make(map[int]bool, len(qs))
	for _, q := range qs {
		if q != nil {
			out[q.ID] = true
		}
	}
	return out
}
