package qgmcheck

import (
	"repro/internal/qgm"
)

// Compensation post-conditions verify the boxes the matcher splices into a
// rewritten plan. They are pattern-level soundness conditions from the paper
// that the generic structural/type rules cannot express:
//
//   - comp/reagg: a regrouping GROUP BY box (§4.1.2 rules (a)–(g)) is a
//     second-stage combiner and may only re-aggregate with the valid
//     combinations of the paper's Table 1 — SUM over SUM, SUM over COUNT,
//     MIN over MIN, MAX over MAX; plain COUNT and AVG are never valid
//     combiners (COUNT re-aggregates as SUM of partial counts; AVG is
//     expanded before planning).
//   - comp/null-slice: a NULL-slicing predicate (§5.1) must discriminate
//     cuboids on the AST's grouping columns; testing an aggregate column for
//     NULL cannot identify a grouping set.
//   - comp/cuboid-pinned: every AST grouping column that some grouping set
//     drops (and therefore NULL-pads) must either be pinned by slicing
//     predicates or preserved in the compensation's output — otherwise rows
//     from different cuboids are conflated (§5.1/§5.2).
//   - comp/rejoin-key: when the regrouping was eliminated (§4.2.1, Example
//     2: NewQ7), each rejoined table must join on columns containing a
//     unique key, or the rejoin multiplies AST rows and corrupts the
//     pre-aggregated values.
//
// The definition-aware rules need Checker.ASTDefs to classify the
// materialized table's columns; without it only the Regroup-flag rules run.

// astDefInfo is the classification of one materialized AST table's columns,
// derived from its definition graph's root box.
type astDefInfo struct {
	gbRooted  bool
	group     map[int]bool // output ordinal → grouping column
	aggAt     map[int]*qgm.Agg
	droppable map[int]bool // grouping ordinals NULL-padded by some grouping set
	multi     bool         // more than one grouping set
}

func defInfo(def *qgm.Graph) *astDefInfo {
	if def == nil || def.Root == nil {
		return nil
	}
	// The builder places a renaming SELECT above the definition's GROUP BY;
	// unwrap it (and any further trivial wrappers) so the classification sees
	// the grouping structure. Each wrapper level remaps output ordinals
	// through its plain-ColRef columns.
	root := def.Root
	colOf := func(i int) int { return i } // materialized ordinal → root ordinal
	for root.Kind == qgm.SelectBox && len(root.Preds) == 0 &&
		len(root.Quantifiers) == 1 && root.Quantifiers[0].Kind == qgm.ForEach {
		inner := root.Quantifiers[0].Box
		wrap := root
		prev := colOf
		colOf = func(i int) int {
			j := prev(i)
			if j < 0 || j >= len(wrap.Cols) {
				return -1
			}
			cr, ok := wrap.Cols[j].Expr.(*qgm.ColRef)
			if !ok || cr.Q != wrap.Quantifiers[0] {
				return -1
			}
			return cr.Col
		}
		root = inner
	}
	info := &astDefInfo{
		group:     map[int]bool{},
		aggAt:     map[int]*qgm.Agg{},
		droppable: map[int]bool{},
	}
	if root.Kind != qgm.GroupByBox {
		return info
	}
	info.gbRooted = true
	info.multi = len(root.GroupingSets) > 1
	// Classify the GROUP BY's own columns first, then project the
	// classification through the wrappers onto materialized-table ordinals.
	group := map[int]bool{}
	droppable := map[int]bool{}
	for pos, col := range root.GroupBy {
		group[col] = true
		for _, gs := range root.GroupingSets {
			found := false
			for _, p := range gs {
				if p == pos {
					found = true
					break
				}
			}
			if !found {
				droppable[col] = true
				break
			}
		}
	}
	for i := range def.Root.Cols {
		j := colOf(i)
		if j < 0 || j >= len(root.Cols) {
			continue
		}
		if group[j] {
			info.group[i] = true
			if droppable[j] {
				info.droppable[i] = true
			}
			continue
		}
		if a, ok := root.Cols[j].Expr.(*qgm.Agg); ok {
			info.aggAt[i] = a
		}
	}
	return info
}

// checkCompensations runs the comp/* rules over every compensation box.
func (r *run) checkCompensations(g *qgm.Graph, boxes []*qgm.Box) {
	var parents map[int][]qgm.ParentEdge // built lazily; most plans have no comp boxes
	for _, b := range boxes {
		switch {
		case b.Kind == qgm.GroupByBox && b.Regroup:
			r.checkReagg(b)
		case b.Kind == qgm.SelectBox && isCompBox(b):
			if parents == nil {
				parents = g.Parents()
			}
			r.checkCompSelect(b, parents)
		}
	}
}

// astQuantifier resolves a quantifier to AST definition info when it reads a
// materialized AST table.
func (r *run) astQuantifier(q *qgm.Quantifier) *astDefInfo {
	if q == nil || q.Box == nil || q.Box.Kind != qgm.BaseTableBox || q.Box.Table == nil || r.defs == nil {
		return nil
	}
	def, ok := r.defs[q.Box.Table.Name]
	if !ok {
		return nil
	}
	return defInfo(def)
}

// checkReagg verifies a regrouping GROUP BY box's aggregates are valid
// second-stage combiners (Table 1).
func (r *run) checkReagg(b *qgm.Box) {
	if len(b.Quantifiers) != 1 {
		return // structure/groupby already reported
	}
	qS := b.Quantifiers[0]
	s := qS.Box

	for i, c := range b.Cols {
		if b.IsGroupCol(i) {
			continue
		}
		a, ok := c.Expr.(*qgm.Agg)
		if !ok {
			continue // structure/groupby already reported
		}
		where := "output " + c.Name
		switch a.Op {
		case "avg":
			r.add("comp/reagg", b, "%s: AVG is not a valid second-stage combiner (Table 1; AVG is expanded to SUM/COUNT before planning)", where)
			continue
		case "count":
			if !a.Distinct {
				r.add("comp/reagg", b, "%s: plain COUNT as a second-stage combiner; partial counts re-aggregate as SUM (Table 1 rule (a))", where)
				continue
			}
		case "sum", "min", "max":
		default:
			continue // agg/op already reported
		}

		// Definition-aware carrier classification: trace the aggregate's
		// argument through the bottom SELECT to the AST columns it reads.
		if s == nil || s.Kind != qgm.SelectBox {
			continue
		}
		ref, ok := a.Arg.(*qgm.ColRef)
		if !ok || ref.Q != qS || ref.Col < 0 || ref.Col >= len(s.Cols) {
			continue
		}
		arg := s.Cols[ref.Col].Expr
		for _, cr := range qgm.ColRefs(arg) {
			info := r.astQuantifier(cr.Q)
			if info == nil || !info.gbRooted {
				continue // rejoin/raw-row input: a first-stage source, always combinable
			}
			if info.group[cr.Col] {
				continue // grouping columns are row-constant per group: derivable
			}
			carrier := info.aggAt[cr.Col]
			if carrier == nil {
				continue
			}
			switch {
			case a.Op == "sum" && !a.Distinct:
				if carrier.Op == "min" || carrier.Op == "max" || carrier.Distinct {
					r.add("comp/reagg", b, "%s: SUM over %s carrier column %d (valid combiners: SUM over SUM, SUM over COUNT)", where, carrier.String(), cr.Col)
				}
			case a.Op == "min" || a.Op == "max":
				if carrier.Op != a.Op {
					r.add("comp/reagg", b, "%s: %s over %s carrier column %d (valid combiner: %s over %s)", where, a.Op, carrier.String(), cr.Col, a.Op, a.Op)
				}
			case a.Distinct: // COUNT/SUM DISTINCT derive from grouping columns only
				r.add("comp/reagg", b, "%s: DISTINCT re-aggregation over aggregate carrier column %d (must derive from grouping columns)", where, cr.Col)
			}
		}
	}
}

// checkCompSelect verifies the slicing and rejoin post-conditions of one
// compensation SELECT box.
func (r *run) checkCompSelect(s *qgm.Box, parents map[int][]qgm.ParentEdge) {
	for _, q := range s.Quantifiers {
		info := r.astQuantifier(q)
		if info == nil || !info.gbRooted {
			continue
		}
		if info.multi {
			r.checkNullSlices(s, q, info)
			r.checkCuboidPinned(s, q, info)
		}
		r.checkRejoinKeys(s, q, parents)
	}
}

// checkNullSlices verifies every IS [NOT] NULL test against a multi-cuboid
// AST targets one of its grouping columns (§5.1: slicing discriminates
// cuboids by the NULL-padding of grouping columns).
func (r *run) checkNullSlices(s *qgm.Box, q *qgm.Quantifier, info *astDefInfo) {
	for i, p := range s.Preds {
		qgm.WalkExpr(p, func(x qgm.Expr) bool {
			isn, ok := x.(*qgm.IsNull)
			if !ok {
				return true
			}
			if cr, ok := isn.E.(*qgm.ColRef); ok && cr.Q == q && !info.group[cr.Col] {
				r.add("comp/null-slice", s, "predicate %d: NULL test on non-grouping column %d of multi-cuboid AST %s", i, cr.Col, q.Box.Table.Name)
			}
			return true
		})
	}
}

// checkCuboidPinned verifies that every droppable grouping column of a
// multi-cuboid AST is accounted for: pinned by slicing predicates (IS NULL /
// IS NOT NULL in every disjunct of some conjunct) or preserved in the
// compensation's output (the all-cuboids-selected pass-through of §5.2).
func (r *run) checkCuboidPinned(s *qgm.Box, q *qgm.Quantifier, info *astDefInfo) {
	pinned := map[int]bool{}
	for _, p := range s.Preds {
		for _, conj := range qgm.SplitConjuncts(p) {
			disjuncts := splitDisjuncts(conj)
			var common map[int]bool
			for _, d := range disjuncts {
				cols := isNullTargets(d, q)
				if common == nil {
					common = cols
					continue
				}
				for col := range common {
					if !cols[col] {
						delete(common, col)
					}
				}
			}
			for col := range common {
				pinned[col] = true
			}
		}
	}
	projected := map[int]bool{}
	for _, c := range s.Cols {
		for _, cr := range qgm.ColRefs(c.Expr) {
			if cr.Q == q {
				projected[cr.Col] = true
			}
		}
	}
	var missing []int
	for col := range info.droppable {
		if !pinned[col] && !projected[col] {
			missing = append(missing, col)
		}
	}
	if len(missing) > 0 {
		set := map[int]bool{}
		for _, c := range missing {
			set[c] = true
		}
		r.add("comp/cuboid-pinned", s,
			"droppable grouping columns %v of multi-cuboid AST %s are neither pinned by slicing predicates nor preserved in the output (cuboids conflated)",
			sortedOrdinals(set), q.Box.Table.Name)
	}
}

// isNullTargets collects the AST columns a disjunct's conjuncts test with
// IS [NOT] NULL at the top level.
func isNullTargets(d qgm.Expr, q *qgm.Quantifier) map[int]bool {
	out := map[int]bool{}
	for _, conj := range qgm.SplitConjuncts(d) {
		if isn, ok := conj.(*qgm.IsNull); ok {
			if cr, ok := isn.E.(*qgm.ColRef); ok && cr.Q == q {
				out[cr.Col] = true
			}
		}
	}
	return out
}

// splitDisjuncts flattens a tree of OR nodes into its disjuncts.
func splitDisjuncts(e qgm.Expr) []qgm.Expr {
	if b, ok := e.(*qgm.Bin); ok && b.Op == "OR" {
		return append(splitDisjuncts(b.L), splitDisjuncts(b.R)...)
	}
	return []qgm.Expr{e}
}

// checkRejoinKeys verifies the §4.2.1 regroup-elimination condition: when no
// regrouping GROUP BY sits above the compensation SELECT, every rejoined
// table must join the AST on columns containing a unique key (1:N with the
// rejoin as the 1 side), or the join multiplies pre-aggregated rows.
func (r *run) checkRejoinKeys(s *qgm.Box, qAST *qgm.Quantifier, parents map[int][]qgm.ParentEdge) {
	var rejoins []*qgm.Quantifier
	for _, q := range s.Quantifiers {
		if q == qAST || q.Kind == qgm.Scalar {
			continue
		}
		if r.astQuantifier(q) != nil {
			continue // another AST input, not a rejoin of this one
		}
		rejoins = append(rejoins, q)
	}
	if len(rejoins) == 0 || hasCompGroupByAbove(s, parents) {
		return // regrouping absorbs join multiplicity
	}
	for _, q := range rejoins {
		if q.Box.Kind != qgm.BaseTableBox {
			r.add("comp/rejoin-key", s, "rejoin q%d is not a base table yet no regrouping compensates the join multiplicity", q.ID)
			continue
		}
		var keyCols []string
		for _, p := range s.Preds {
			b, ok := p.(*qgm.Bin)
			if !ok || b.Op != "=" {
				continue
			}
			l, lok := b.L.(*qgm.ColRef)
			rr, rok := b.R.(*qgm.ColRef)
			if !lok || !rok {
				continue
			}
			if l.Q == q && rr.Q != q {
				keyCols = append(keyCols, q.Box.Table.Columns[l.Col].Name)
			} else if rr.Q == q && l.Q != q {
				keyCols = append(keyCols, q.Box.Table.Columns[rr.Col].Name)
			}
		}
		if !q.Box.Table.HasUniqueKey(keyCols) {
			r.add("comp/rejoin-key", s, "rejoin of %s on columns %v without a unique key and without regrouping (§4.2.1: rejoins must be 1:N with the rejoin as the 1 side)", q.Box.Table.Name, keyCols)
		}
	}
}

// hasCompGroupByAbove reports whether a compensation GROUP BY box consumes s
// (directly or through other compensation boxes).
func hasCompGroupByAbove(s *qgm.Box, parents map[int][]qgm.ParentEdge) bool {
	seen := map[int]bool{}
	queue := []*qgm.Box{s}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, pe := range parents[b.ID] {
			p := pe.Parent
			if seen[p.ID] || !isCompBox(p) {
				continue
			}
			seen[p.ID] = true
			if p.Kind == qgm.GroupByBox {
				return true
			}
			queue = append(queue, p)
		}
	}
	return false
}
