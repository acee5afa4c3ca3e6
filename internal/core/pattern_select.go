package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/qgm"
)

// matchSelect implements the SELECT/SELECT patterns:
//
//   - §4.1.1 — exact child matches: rejoin children, lossless extra joins
//     (via RI constraints), predicate matching/subsumption, derivation of
//     subsumee predicates and output columns from subsumer outputs;
//   - §4.2.3 — SELECT-only child compensations: child-compensation predicates
//     join the predicate pool (condition 2) and are pulled up (condition 5);
//   - §4.2.4 — one child match whose compensation includes grouping: the
//     grouping compensation stack is pulled up above the subsumer, and a
//     final SELECT compensates the subsumee's own predicates and columns.
func (m *Matcher) matchSelect(e, r *qgm.Box) *Match {
	a := m.assignChildren(e, r)
	if len(a.pairs) == 0 {
		return m.reject(e, r, "universal condition 1: no pair of children matches")
	}

	// Classify child matches.
	var gbPair *childPair
	var selPairs []*childPair
	for _, p := range a.pairs {
		if p.m.Exact {
			continue
		}
		if p.eq.Kind == qgm.Scalar && !projectionOnly(p.m) {
			// A filtered scalar-subquery compensation cannot be pulled up
			// (it would change the empty-result NULL semantics).
			return m.reject(e, r, "scalar-subquery child matched with non-projection compensation")
		}
		if p.m.hasGroupingComp() {
			if gbPair != nil {
				return m.reject(e, r, "more than one grouping child compensation (§4.2.4 allows one)")
			}
			gbPair = p
		} else {
			selPairs = append(selPairs, p)
		}
	}
	if gbPair != nil {
		// §4.2.4 applies to subsumee/subsumer pairs with no common joins: the
		// grouping-compensated child must be the only matched ForEach child.
		for _, p := range a.pairs {
			if p != gbPair && p.eq.Kind == qgm.ForEach {
				return m.reject(e, r, "§4.2.4 requires no common joins besides the grouping-compensated child")
			}
		}
	}

	// Condition 1 (§4.1.1): every extra join must be lossless.
	extraJoinPreds, lossy := m.extrasLossless(r, a)
	if lossy != nil {
		return m.reject(e, r, "condition 1 (§4.1.1): the extra join of %s is not provably lossless", lossy.Box.Label)
	}

	t := &translator{assign: a}
	eqR := subsumerEquiv(r)

	// Build the subsumee-side predicate pool: the subsumee's own predicates
	// and all child-compensation predicates, translated into the subsumer's
	// context (§6).
	var pool []*poolEntry
	for _, p := range e.Preds {
		pool = append(pool, &poolEntry{rspace: t.translate(p), orig: p, level: -1})
	}
	compPairs := append([]*childPair(nil), selPairs...)
	if gbPair != nil {
		compPairs = append(compPairs, gbPair)
	}
	for _, cp := range compPairs {
		for level, box := range cp.m.Stack {
			for _, p := range box.Preds {
				pool = append(pool, &poolEntry{rspace: expandCompExpr(cp.m, cp.rq, p), orig: p, level: level})
			}
		}
	}

	// Condition 2: every subsumer predicate that is not an extra-join
	// predicate must match (or subsume) a pool predicate.
	for i, rp := range r.Preds {
		if extraJoinPreds[i] {
			continue
		}
		ok := false
		for _, pe := range pool {
			if qgm.ExprEqual(rp, pe.rspace, eqR) {
				pe.satisfied = true
				ok = true
				break
			}
		}
		if !ok {
			// Weaker form: the subsumer predicate subsumes a pool predicate
			// (footnote 4) — the pool predicate stays unsatisfied and is
			// re-applied in the compensation.
			for _, pe := range pool {
				if qgm.Subsumes(rp, pe.rspace, eqR) {
					ok = true
					break
				}
			}
		}
		if !ok {
			return m.reject(e, r, "condition 2 (§4.1.1/§4.2.3): subsumer predicate %s matches no subsumee or child-compensation predicate", rp.String())
		}
	}

	if gbPair == nil {
		mm, err := m.buildSelectComp(e, r, a, t, eqR, pool)
		if err != nil {
			return m.reject(e, r, "%v", err)
		}
		mm.Pattern = "§4.1.1"
		if len(selPairs) > 0 {
			mm.Pattern = "§4.2.3"
		}
		return mm
	}
	mm, err := m.buildSelectGBComp(e, r, a, gbPair, t, eqR, pool)
	if err != nil {
		return m.reject(e, r, "pulling the grouping compensation up (§4.2.4): %v", err)
	}
	mm.Pattern = "§4.2.4"
	return mm
}

// poolEntry is one subsumee-side predicate (from the subsumee itself or from
// a child compensation), translated into the subsumer's context. Entries left
// unsatisfied by condition 2 must be re-applied in the compensation
// (conditions 3 and 5).
type poolEntry struct {
	rspace    qgm.Expr
	satisfied bool // exactly matched by a subsumer predicate

	orig  qgm.Expr // the predicate as its box states it
	level int      // its box's level in the child compensation; -1 for the subsumee's own
}

// extrasLossless verifies §4.1.1 condition 1 for every extra subsumer child:
// all subsumer predicates referencing an extra child must be RI equi-join
// predicates whose child (foreign-key) side is a matched base table, with the
// catalog proving losslessness. It returns the set of subsumer predicate
// indices that are extra-join predicates, or the first extra child whose join
// may lose or duplicate rows. An extra joined to another extra is refused: the
// predicate between them puts each on the foreign-key side of the other's
// check.
func (m *Matcher) extrasLossless(r *qgm.Box, a *assignment) (map[int]bool, *qgm.Quantifier) {
	extraJoin := map[int]bool{}
	matched := map[int]bool{}
	for _, p := range a.pairs {
		matched[p.rq.ID] = true
	}
	for _, x := range a.extras {
		// An (uncorrelated) scalar child contributes one value, never
		// multiplicity; nothing to verify.
		if x.Kind != qgm.Scalar && !m.extraLossless(r, x, matched, extraJoin) {
			return nil, x
		}
	}
	return extraJoin, nil
}

// extraLossless checks one extra child: every subsumer predicate referencing
// it must be an equality to a matched base-table child, and together those
// equalities must be covered by an RI constraint with non-nullable FK side.
func (m *Matcher) extraLossless(r *qgm.Box, x *qgm.Quantifier, matched map[int]bool, extraJoin map[int]bool) bool {
	if x.Box.Kind != qgm.BaseTableBox {
		return false
	}
	xSet := quantSet(x)
	type pair struct {
		childCol, parentCol string
		childQ              *qgm.Quantifier
	}
	var pairs []pair
	var predIdx []int
	for i, p := range r.Preds {
		if !refersToAny(p, xSet) {
			continue
		}
		b, ok := p.(*qgm.Bin)
		if !ok || b.Op != "=" {
			return false
		}
		l, lok := b.L.(*qgm.ColRef)
		rr, rok := b.R.(*qgm.ColRef)
		if !lok || !rok {
			return false
		}
		var xc, oc *qgm.ColRef
		switch {
		case l.Q == x && rr.Q != x:
			xc, oc = l, rr
		case rr.Q == x && l.Q != x:
			xc, oc = rr, l
		default:
			return false // local predicate on the extra child, or self-equality
		}
		if !matched[oc.Q.ID] || oc.Q.Box.Kind != qgm.BaseTableBox {
			return false
		}
		pairs = append(pairs, pair{
			childCol:  oc.Q.Box.Table.Columns[oc.Col].Name,
			parentCol: x.Box.Table.Columns[xc.Col].Name,
			childQ:    oc.Q,
		})
		predIdx = append(predIdx, i)
	}
	if len(pairs) == 0 {
		return false // cartesian extra child duplicates rows
	}
	// All FK-side columns must come from one child quantifier.
	childQ := pairs[0].childQ
	childCols := make([]string, len(pairs))
	parentCols := make([]string, len(pairs))
	for i, pr := range pairs {
		if pr.childQ != childQ {
			return false
		}
		childCols[i] = pr.childCol
		parentCols[i] = pr.parentCol
	}
	if !m.cat.LosslessJoin(childQ.Box.Table.Name, childCols, x.Box.Table.Name, parentCols) {
		return false
	}
	for _, i := range predIdx {
		extraJoin[i] = true
	}
	return true
}

// projectionOnly reports whether a match's compensation is a pure projection:
// a single SELECT box over the subsumer with no predicates, no rejoins and
// only simple column references.
func projectionOnly(mm *Match) bool {
	if mm.Exact {
		return true
	}
	if len(mm.Stack) != 1 {
		return false
	}
	c := mm.Stack[0]
	if c.Kind != qgm.SelectBox || len(c.Preds) > 0 || len(c.Quantifiers) != 1 {
		return false
	}
	for _, col := range c.Cols {
		if _, ok := col.Expr.(*qgm.ColRef); !ok {
			return false
		}
	}
	return true
}

// compCounter is atomic: concurrent queries each run a matcher, and every
// matcher allocates compensation labels from this one counter.
var compCounter atomic.Int64

func compLabel(kind string) string {
	return fmt.Sprintf("%s-C%d", kind, compCounter.Add(1))
}
