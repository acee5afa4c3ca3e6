package qgmcheck

import (
	"fmt"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// DML and delta-plan rules (dml/*, delta/*). SELECT plans flow through Check
// and Structural; the mutation side has two more compiled artifacts worth
// auditing before they touch data:
//
//   - a qgm.DML (compiled DELETE/UPDATE): no box tree, but its WHERE and SET
//     expressions must be bound to the single base-table quantifier, typed,
//     aggregate-free, and assignment-compatible with the target columns;
//   - a maintenance delta plan (the ordinal tables maintain.Analyze derives
//     and Plan.InsertRouting/DeleteRouting route on): key columns, the
//     COUNT(*) tracker, and the scoped-recompute ordinals must agree with the
//     definition graph, or the merge would subtract the wrong columns.
//
// Both checks are cheap (row-local expressions, one small graph), so maintain
// gates every incremental refresh through CheckDeltaPlan — a violation falls
// back to full recomputation instead of publishing a corrupt merge — and
// astdb gates compiled DML through CheckDML behind WithVerifyPlans.

// CheckDML audits a compiled DELETE or UPDATE statement and returns the
// violations in discovery order.
func CheckDML(d *qgm.DML) []Violation {
	r := &run{}
	r.checkDML(d)
	return r.vs
}

func (r *run) checkDML(d *qgm.DML) {
	if d == nil {
		r.add("dml/shape", nil, "nil DML statement")
		return
	}
	if d.Table == nil {
		r.add("dml/shape", nil, "%s without a target table", d.Kind)
		return
	}
	q := d.Q
	if q == nil || q.Box == nil {
		r.add("dml/shape", nil, "%s on %s has no bound quantifier", d.Kind, d.Table.Name)
		return
	}
	if q.Kind != qgm.ForEach {
		r.add("dml/shape", q.Box, "%s quantifier q%d is not ForEach", d.Kind, q.ID)
	}
	if q.Box.Kind != qgm.BaseTableBox || q.Box.Table != d.Table {
		r.add("dml/shape", q.Box, "%s quantifier q%d is not bound to base table %s", d.Kind, q.ID, d.Table.Name)
		return
	}
	arity := len(d.Table.Columns)

	// checkExpr reports whether e is soundly bound; type inference indexes
	// through column ordinals, so the type rules only run on bound expressions.
	checkExpr := func(where string, e qgm.Expr) bool {
		bound := true
		qgm.WalkExpr(e, func(x qgm.Expr) bool {
			switch t := x.(type) {
			case *qgm.ColRef:
				if t.Q != q {
					r.add("dml/binding", q.Box, "%s: reference to a quantifier other than the statement's own", where)
					bound = false
					return false
				}
				if t.Col < 0 || t.Col >= arity {
					r.add("dml/binding", q.Box, "%s: column %d out of range for %s (arity %d)", where, t.Col, d.Table.Name, arity)
					bound = false
					return false
				}
			case *qgm.Agg:
				r.add("dml/agg", q.Box, "%s: aggregate %s in a row-local %s expression", where, t.String(), d.Kind)
				return false
			}
			return true
		})
		if !bound {
			return false
		}
		for _, iss := range qgm.TypeIssues(e) {
			r.add("types/"+iss.Class, q.Box, "%s: %s", where, iss.Detail)
		}
		return true
	}

	if d.Where != nil {
		if checkExpr("WHERE", d.Where) {
			if k, _ := qgm.InferType(d.Where); !qgm.IsBoolKind(k) {
				r.add("dml/where", q.Box, "WHERE has non-boolean type %v", k)
			}
		}
	}
	if d.Kind == qgm.DMLDelete && len(d.Sets) > 0 {
		r.add("dml/set", q.Box, "DELETE carries %d SET assignments", len(d.Sets))
	}
	if d.Kind == qgm.DMLUpdate && len(d.Sets) == 0 {
		r.add("dml/set", q.Box, "UPDATE without SET assignments")
	}
	seen := make(map[int]bool, len(d.Sets))
	for i, s := range d.Sets {
		if s.Col < 0 || s.Col >= arity {
			r.add("dml/set", q.Box, "SET %d targets column %d out of range for %s (arity %d)", i, s.Col, d.Table.Name, arity)
			continue
		}
		col := d.Table.Columns[s.Col]
		if seen[s.Col] {
			r.add("dml/set", q.Box, "column %q assigned twice", col.Name)
		}
		seen[s.Col] = true
		if s.Expr == nil {
			r.add("dml/set", q.Box, "SET %s has no value expression", col.Name)
			continue
		}
		if checkExpr(fmt.Sprintf("SET %s", col.Name), s.Expr) {
			if k, _ := qgm.InferType(s.Expr); !assignableSetKind(k, col.Type) {
				r.add("dml/set", q.Box, "SET %s: %v value into %v column", col.Name, k, col.Type)
			}
		}
	}
}

// assignableSetKind mirrors qgm's UPDATE assignment rule: exact kind match,
// unknown (NULL-typed) expressions pass, integers widen into float columns,
// and integer yyyymmdd values land in date columns.
func assignableSetKind(k, col sqltypes.Kind) bool {
	if k == sqltypes.KindNull || k == col {
		return true
	}
	if col == sqltypes.KindFloat && k == sqltypes.KindInt {
		return true
	}
	if col == sqltypes.KindDate && k == sqltypes.KindInt {
		return true
	}
	return false
}

// DeltaPlan is the structural projection of a maintenance plan: the AST's
// definition graph plus the derived ordinal tables the delta-merge machinery
// routes on. internal/maintain builds one before every incremental refresh;
// a violation means the plan and the definition disagree — merging with those
// ordinals would add or subtract the wrong columns — so the caller must fall
// back to full recomputation.
type DeltaPlan struct {
	Graph        *qgm.Graph
	KeyCols      []int // root output ordinals that are grouping keys
	CounterCol   int   // COUNT(*)-equivalent tracker ordinal; -1 = none
	ScopedCols   []int // ordinals restored by a group-scoped recompute
	KeyLowerOrds []int // lower-box output ordinal per key column (scoped path)
}

// CheckDeltaPlan audits a maintenance plan projection against its definition
// graph. The graph is checked structurally first; ordinal rules assume a
// well-formed single-block aggregation shape and report delta/shape when the
// graph does not have one.
func CheckDeltaPlan(p DeltaPlan) []Violation {
	r := &run{structuralOnly: true}
	r.check(p.Graph)
	if len(r.vs) > 0 {
		return r.vs // ordinal rules over a broken graph would mislead
	}
	r.checkDeltaPlan(p)
	return r.vs
}

func (r *run) checkDeltaPlan(p DeltaPlan) {
	root := p.Graph.Root
	if root.Kind != qgm.SelectBox || len(root.Quantifiers) != 1 ||
		root.Quantifiers[0].Box == nil || root.Quantifiers[0].Box.Kind != qgm.GroupByBox {
		r.add("delta/shape", root, "maintainable plan must be a SELECT over exactly one GROUP BY")
		return
	}
	gb := root.Quantifiers[0].Box
	arity := len(root.Cols)

	inRange := func(rule string, what string, ords []int) bool {
		ok := true
		seen := make(map[int]bool, len(ords))
		for _, o := range ords {
			if o < 0 || o >= arity {
				r.add(rule, root, "%s ordinal %d out of range (arity %d)", what, o, arity)
				ok = false
				continue
			}
			if seen[o] {
				r.add(rule, root, "duplicate %s ordinal %d", what, o)
				ok = false
			}
			seen[o] = true
		}
		return ok
	}
	if !inRange("delta/ordinal", "key", p.KeyCols) {
		return
	}
	if !inRange("delta/ordinal", "scoped", p.ScopedCols) {
		return
	}
	if p.CounterCol < -1 || p.CounterCol >= arity {
		r.add("delta/ordinal", root, "tracker ordinal %d out of range (arity %d)", p.CounterCol, arity)
		return
	}

	// Every root output must be a plain reference into the GROUP BY box, and
	// the key/aggregate partition recorded in the plan must match the graph's.
	isKey := make(map[int]bool, len(p.KeyCols))
	for _, k := range p.KeyCols {
		isKey[k] = true
	}
	gbRef := make([]*qgm.ColRef, arity)
	for i, c := range root.Cols {
		cr, ok := c.Expr.(*qgm.ColRef)
		if !ok || cr.Q == nil || cr.Q.Box != gb || cr.Col < 0 || cr.Col >= len(gb.Cols) {
			r.add("delta/shape", root, "output %q is not a plain reference into the GROUP BY box", c.Name)
			return
		}
		gbRef[i] = cr
		if gb.IsGroupCol(cr.Col) != isKey[i] {
			r.add("delta/keys", root, "output %q: plan says key=%v, definition says key=%v", c.Name, isKey[i], gb.IsGroupCol(cr.Col))
		}
	}

	aggAt := func(i int) *qgm.Agg {
		a, _ := gb.Cols[gbRef[i].Col].Expr.(*qgm.Agg)
		return a
	}
	if p.CounterCol >= 0 {
		a := aggAt(p.CounterCol)
		switch {
		case isKey[p.CounterCol] || a == nil:
			r.add("delta/tracker", root, "tracker ordinal %d is not an aggregate column", p.CounterCol)
		case a.Op != "count":
			r.add("delta/tracker", root, "tracker ordinal %d is %s, not a COUNT", p.CounterCol, a.Op)
		case !a.Star:
			if _, nullable := qgm.InferType(a.Arg); nullable {
				r.add("delta/tracker", root, "tracker ordinal %d counts a nullable expression; it cannot track group cardinality", p.CounterCol)
			}
		}
	}
	for _, sc := range p.ScopedCols {
		a := aggAt(sc)
		if isKey[sc] || a == nil {
			r.add("delta/scoped", root, "scoped ordinal %d is not an aggregate column", sc)
			continue
		}
		switch a.Op {
		case "min", "max", "sum":
		default:
			r.add("delta/scoped", root, "scoped ordinal %d is %s; only MIN/MAX/SUM need scoped recompute", sc, a.Op)
		}
	}

	// The scoped-recompute path injects key equalities into the lower box, so
	// each recorded lower ordinal must be exactly where the grouping column
	// reads from.
	if len(p.KeyLowerOrds) > 0 {
		if len(p.KeyLowerOrds) != len(p.KeyCols) {
			r.add("delta/keys", root, "%d lower-box key ordinals for %d key columns", len(p.KeyLowerOrds), len(p.KeyCols))
			return
		}
		lower := gb.Child() // not nil: the structural rules passed
		for j, kc := range p.KeyCols {
			gcr, ok := gb.Cols[gbRef[kc].Col].Expr.(*qgm.ColRef)
			if !ok {
				r.add("delta/keys", gb, "grouping column %d is not a plain lower-box reference", gbRef[kc].Col)
				continue
			}
			if ord := p.KeyLowerOrds[j]; ord != gcr.Col || ord < 0 || ord >= len(lower.Cols) {
				r.add("delta/keys", gb, "key column %d maps to lower ordinal %d, definition reads %d", kc, ord, gcr.Col)
			}
		}
	}
}
