// Package qgmcheck is a deep static soundness checker for QGM graphs. It
// verifies that a plan — original or rewritten — satisfies the invariants the
// paper's rewrite patterns (§4.1.1–§4.2.4, §5.1, §5.2) rely on:
//
//   - structural shape of every box kind, with cycle detection (structure/*);
//   - cross-box column-binding resolution: every column reference resolves by
//     pointer identity to a quantifier of the enclosing box, within the
//     producer's arity — catching dangling references left behind by clone,
//     pull-up, or compensation construction bugs (binding/*);
//   - aggregation scoping: aggregates appear only as GROUP BY output columns,
//     with well-formed operators (agg/*);
//   - full bottom-up type checking over expression trees: operand type
//     agreement for logical/comparison/arithmetic operators, builtin call
//     arity and argument kinds, aggregate argument types, CASE branch
//     agreement (types/*);
//   - grouping-set canonicalization for CUBE/ROLLUP boxes (gsets/*);
//   - compensation post-conditions on boxes the matcher spliced in:
//     second-stage re-aggregation must be a valid combiner per the paper's
//     Table 1, NULL-slicing predicates must discriminate cuboids on grouping
//     columns, every droppable cuboid column must be pinned or preserved, and
//     regroup-eliminating rejoins must join on a proven unique key (comp/*).
//
// Only Structural runs at run time: on every accepted rewrite (a failure
// discards it and the query runs on the base plan) and on every scoped
// recompute plan maintenance builds. The full Check, CheckDML and the comp/*
// rules are test oracles: the test suites, fuzzing and the chaos suite run
// them over built graphs, compiled DML and every served plan.
package qgmcheck

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/qgm"
)

// Violation is one rule failure. Rule is a stable slash-separated identifier
// ("binding/resolve", "comp/reagg", …); Box locates the offending box.
type Violation struct {
	Rule   string
	Box    string // "Label(#ID)", empty for graph-level rules
	Detail string
}

// String renders the violation as "rule box: detail".
func (v Violation) String() string {
	if v.Box == "" {
		return v.Rule + ": " + v.Detail
	}
	return v.Rule + " " + v.Box + ": " + v.Detail
}

// CheckError wraps a non-empty violation list as an error.
type CheckError struct {
	Violations []Violation
}

// Error joins the violations, one per line.
func (e *CheckError) Error() string {
	lines := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		lines[i] = v.String()
	}
	return "qgmcheck: " + strings.Join(lines, "; ")
}

// AsError converts a violation list into an error (nil when empty).
func AsError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return &CheckError{Violations: vs}
}

// Checker runs the full rule set. The zero value checks everything except the
// definition-aware compensation rules; supplying ASTDefs (materialized AST
// table name → definition graph) enables the deep comp/* rules that classify
// AST columns as grouping columns vs. aggregate carriers.
type Checker struct {
	ASTDefs map[string]*qgm.Graph
}

// Check runs every applicable rule over the graph and returns the violations
// in deterministic (bottom-up box, then rule) order. A structurally broken
// graph (cycle, nil root) short-circuits: deeper rules assume a well-formed
// DAG.
func (c *Checker) Check(g *qgm.Graph) []Violation {
	ck := &run{defs: c.ASTDefs}
	ck.check(g)
	return ck.vs
}

// Check runs the definition-independent rules (a zero Checker).
func Check(g *qgm.Graph) []Violation {
	return (&Checker{}).Check(g)
}

// Structural runs only the structural, binding, aggregate-placement and
// grouping-set rules and returns the first violation as an error. It is cheap
// enough for always-on use on accepted rewrites.
func Structural(g *qgm.Graph) error {
	ck := &run{structuralOnly: true}
	ck.check(g)
	return AsError(ck.vs)
}

// run is one checker invocation's state.
type run struct {
	defs           map[string]*qgm.Graph
	structuralOnly bool
	vs             []Violation
}

func (r *run) add(rule string, b *qgm.Box, format string, args ...any) {
	v := Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)}
	if b != nil {
		v.Box = fmt.Sprintf("%s(#%d)", b.Label, b.ID)
	}
	r.vs = append(r.vs, v)
}

func (r *run) check(g *qgm.Graph) {
	if g == nil || g.Root == nil {
		r.add("structure/root", nil, "graph has no root")
		return
	}
	if !r.checkAcyclic(g) {
		return // inference over a cyclic graph would not terminate
	}
	boxes := g.Boxes()
	r.checkIdentity(boxes)
	for _, b := range boxes {
		r.checkShape(b)
		r.checkBindings(b)
		r.checkGroupingSets(b)
		if !r.structuralOnly {
			r.checkTypes(b)
		}
	}
	if !r.structuralOnly {
		r.checkCompensations(g, boxes)
	}
}

// checkAcyclic verifies the quantifier edges form a DAG reachable from the
// root, and that no two boxes share an ID: it walks boxes by pointer, where
// qgm.Graph.Boxes walks by ID and would skip the second box under an ID.
// Returns false (after recording structure/cycle) when a cycle exists.
func (r *run) checkAcyclic(g *qgm.Graph) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*qgm.Box]int{}
	ids := map[int]*qgm.Box{}
	ok := true
	var visit func(b *qgm.Box)
	visit = func(b *qgm.Box) {
		if b == nil || !ok {
			return
		}
		switch color[b] {
		case gray:
			r.add("structure/cycle", b, "box participates in a quantifier cycle")
			ok = false
			return
		case black:
			return
		}
		if prev, dup := ids[b.ID]; dup {
			r.add("structure/box-id", b, "duplicate box ID %d (also %s)", b.ID, prev.Label)
		}
		ids[b.ID] = b
		color[b] = gray
		for _, q := range b.Quantifiers {
			visit(q.Box)
		}
		color[b] = black
	}
	visit(g.Root)
	return ok
}

// checkIdentity verifies the quantifier identity invariants (box IDs are
// checkAcyclic's): quantifier IDs are unique, and each quantifier belongs to
// exactly one box (child boxes may be shared — that is the QGM's DAG shape —
// but edges may not).
func (r *run) checkIdentity(boxes []*qgm.Box) {
	quantOwner := map[*qgm.Quantifier]*qgm.Box{}
	quantIDs := map[int]*qgm.Quantifier{}
	for _, b := range boxes {
		for _, q := range b.Quantifiers {
			if q.Box == nil {
				r.add("structure/quantifier", b, "quantifier q%d has no child box", q.ID)
			}
			if owner, shared := quantOwner[q]; shared {
				r.add("structure/quantifier", b, "quantifier q%d is shared with box %s", q.ID, owner.Label)
			}
			quantOwner[q] = b
			if prev, dup := quantIDs[q.ID]; dup && prev != q {
				r.add("structure/quantifier", b, "duplicate quantifier ID q%d", q.ID)
			}
			quantIDs[q.ID] = q
		}
	}
}

// checkShape verifies the per-kind structural invariants.
func (r *run) checkShape(b *qgm.Box) {
	switch b.Kind {
	case qgm.BaseTableBox:
		if b.Table == nil {
			r.add("structure/base", b, "base table box without table")
			return
		}
		if len(b.Quantifiers) > 0 || len(b.Preds) > 0 {
			r.add("structure/base", b, "base table box with children or predicates")
		}
		if len(b.Cols) != len(b.Table.Columns) {
			r.add("structure/base", b, "arity %d does not match table %s arity %d", len(b.Cols), b.Table.Name, len(b.Table.Columns))
		}
	case qgm.SelectBox:
		for _, c := range b.Cols {
			if c.Expr == nil {
				r.add("structure/select", b, "output %q has no expression", c.Name)
			}
		}
		if len(b.GroupBy) > 0 || len(b.GroupingSets) > 0 || b.Regroup {
			r.add("structure/select", b, "select box with grouping metadata")
		}
	case qgm.GroupByBox:
		if len(b.Quantifiers) != 1 || (len(b.Quantifiers) == 1 && b.Quantifiers[0].Kind != qgm.ForEach) {
			r.add("structure/groupby", b, "GROUP BY box must have exactly one ForEach child")
		}
		if len(b.Preds) > 0 {
			r.add("structure/groupby", b, "GROUP BY box with predicates")
		}
		seen := map[int]bool{}
		for _, col := range b.GroupBy {
			if col < 0 || col >= len(b.Cols) {
				r.add("structure/groupby", b, "grouping ordinal %d out of range (arity %d)", col, len(b.Cols))
				continue
			}
			if seen[col] {
				r.add("structure/groupby", b, "duplicate grouping ordinal %d", col)
			}
			seen[col] = true
			if _, ok := b.Cols[col].Expr.(*qgm.ColRef); !ok {
				r.add("structure/groupby", b, "grouping column %q is not a plain input reference", b.Cols[col].Name)
			}
		}
		for i, c := range b.Cols {
			if b.IsGroupCol(i) {
				continue
			}
			if _, ok := c.Expr.(*qgm.Agg); !ok {
				r.add("structure/groupby", b, "non-grouping output %q is not an aggregate", c.Name)
			}
		}
	default:
		r.add("structure/box", b, "unknown box kind %d", b.Kind)
	}
}

// checkBindings verifies column references and aggregate placement. A column
// reference must resolve — by pointer identity, not just ID — to a quantifier
// of the enclosing box; this catches clone bugs where an expression still
// references the original graph's quantifier carrying the same ID.
func (r *run) checkBindings(b *qgm.Box) {
	owned := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		owned[q] = true
		if q.Kind == qgm.Scalar && q.Box != nil && len(q.Box.Cols) != 1 {
			r.add("binding/scalar", b, "scalar quantifier q%d child %s has arity %d, want 1", q.ID, q.Box.Label, len(q.Box.Cols))
		}
	}

	checkRefs := func(where string, e qgm.Expr, aggOK bool) {
		qgm.WalkExpr(e, func(x qgm.Expr) bool {
			switch t := x.(type) {
			case *qgm.ColRef:
				if t.Q == nil {
					r.add("binding/resolve", b, "%s: unbound column reference", where)
					return false
				}
				if !owned[t.Q] {
					r.add("binding/resolve", b, "%s: reference to quantifier q%d not owned by this box", where, t.Q.ID)
					return false
				}
				if t.Q.Box == nil || t.Col < 0 || t.Col >= len(t.Q.Box.Cols) {
					arity := 0
					if t.Q.Box != nil {
						arity = len(t.Q.Box.Cols)
					}
					r.add("binding/resolve", b, "%s: column %d out of range for q%d (arity %d)", where, t.Col, t.Q.ID, arity)
					return false
				}
			case *qgm.Agg:
				if !aggOK {
					r.add("agg/placement", b, "%s: aggregate %s outside a GROUP BY output column", where, t.String())
					return false
				}
				r.checkAggNode(b, where, t)
				// Descend into the argument with aggregates now forbidden
				// (no nested aggregation).
				if t.Arg != nil {
					checkInner := t.Arg
					qgm.WalkExpr(checkInner, func(y qgm.Expr) bool {
						if _, nested := y.(*qgm.Agg); nested && y != t {
							r.add("agg/placement", b, "%s: nested aggregate", where)
							return false
						}
						return true
					})
				}
			}
			return true
		})
	}

	isGB := b.Kind == qgm.GroupByBox
	for i, c := range b.Cols {
		if c.Expr == nil {
			continue // base boxes; select-box nils already reported
		}
		aggOK := isGB && !b.IsGroupCol(i)
		checkRefs(fmt.Sprintf("output %q", c.Name), c.Expr, aggOK)
	}
	for i, p := range b.Preds {
		checkRefs(fmt.Sprintf("predicate %d", i), p, false)
	}
}

// checkAggNode verifies one aggregate application's well-formedness: a known
// operator, and COUNT(*) shape consistency (Arg nil iff Star, Star only on
// COUNT). AVG never survives qgm.Build (it is expanded to SUM/COUNT), so an
// "avg" node in a plan is always a construction bug.
func (r *run) checkAggNode(b *qgm.Box, where string, a *qgm.Agg) {
	switch a.Op {
	case "count", "sum", "min", "max":
	default:
		r.add("agg/op", b, "%s: unsupported aggregate operator %q", where, a.Op)
	}
	if a.Star {
		if a.Op != "count" {
			r.add("agg/op", b, "%s: %s(*) is not a valid aggregate", where, a.Op)
		}
		if a.Arg != nil {
			r.add("agg/op", b, "%s: star aggregate with an argument", where)
		}
	} else if a.Arg == nil {
		r.add("agg/op", b, "%s: aggregate %s without argument", where, a.Op)
	}
}

// checkGroupingSets verifies canonical grouping-set structure (§5): positions
// in range, each set strictly ascending (sorted, duplicate-free), sets
// deduplicated, and at least one set present on every GROUP BY box.
func (r *run) checkGroupingSets(b *qgm.Box) {
	if b.Kind != qgm.GroupByBox {
		return
	}
	if len(b.GroupingSets) == 0 {
		r.add("structure/groupby", b, "GROUP BY box without grouping sets")
		return
	}
	seen := map[string]bool{}
	for si, gs := range b.GroupingSets {
		for i, pos := range gs {
			if pos < 0 || pos >= len(b.GroupBy) {
				r.add("gsets/canonical", b, "set %d position %d out of range (%d grouping columns)", si, pos, len(b.GroupBy))
			}
			if i > 0 && gs[i-1] >= pos {
				r.add("gsets/canonical", b, "set %d is not strictly ascending at index %d", si, i)
			}
		}
		key := fmt.Sprint(gs)
		if seen[key] {
			r.add("gsets/canonical", b, "duplicate grouping set %v", gs)
		}
		seen[key] = true
	}
}

// compLabelRe identifies compensation boxes by the matcher's label scheme
// ("Sel-C12", "GB-C3"); query-built boxes end in "-Q" or carry base labels.
var compLabelRe = regexp.MustCompile(`-C[0-9]+$`)

// isCompBox reports whether the matcher created this box as compensation.
func isCompBox(b *qgm.Box) bool {
	return b != nil && compLabelRe.MatchString(b.Label)
}

// sortedOrdinals renders an int set for deterministic diagnostics.
func sortedOrdinals(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
