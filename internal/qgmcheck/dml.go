package qgmcheck

import (
	"fmt"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// DML rules (dml/*). SELECT plans flow through Check and Structural; a
// qgm.DML (compiled DELETE/UPDATE) has no box tree, but its WHERE and SET
// expressions must be bound to the single base-table quantifier, typed,
// aggregate-free, and assignment-compatible with the target columns.

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
