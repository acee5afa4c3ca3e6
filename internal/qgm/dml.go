package qgm

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/parser"
	"repro/internal/sqltypes"
)

// DMLKind distinguishes the two mutation statements.
type DMLKind uint8

const (
	// DMLDelete is DELETE FROM.
	DMLDelete DMLKind = iota
	// DMLUpdate is UPDATE ... SET.
	DMLUpdate
)

// String names the kind.
func (k DMLKind) String() string {
	if k == DMLDelete {
		return "DELETE"
	}
	return "UPDATE"
}

// DMLSet is one compiled column assignment: the target column ordinal and the
// value expression over the row's current values.
type DMLSet struct {
	Col  int
	Expr Expr
}

// DML is a compiled DELETE or UPDATE: a single base-table quantifier with the
// WHERE predicate and SET expressions bound to it. Unlike a query it has no
// box tree — the executor evaluates Where and Sets over the chunks of Q's
// table on the kernels a SELECT's WHERE runs on (exec.Filter).
type DML struct {
	Kind  DMLKind
	Table *catalog.Table
	Q     *Quantifier
	Where Expr // nil = every row
	Sets  []DMLSet
}

// bindDML builds the single-table binding environment shared by BuildDelete
// and BuildUpdate and returns the resolver for its expressions. Scalar
// subqueries are rejected (readOnly resolver) — DML predicates are row-local.
func bindDML(kind DMLKind, table string, cat *catalog.Catalog) (*DML, *resolver, error) {
	tbl, ok := cat.Table(table)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q not in catalog", ErrUnknownTable, strings.ToLower(table))
	}
	g := NewGraph(cat)
	base := g.BaseTableBox(tbl)
	q := g.NewQuantifier(ForEach, base, tbl.Name)
	sc := &scope{entries: []scopeEntry{{alias: strings.ToLower(tbl.Name), quant: q}}}
	r := &resolver{b: &builder{g: g}, scope: sc, tag: "dml"}
	return &DML{Kind: kind, Table: tbl, Q: q}, r, nil
}

// resolveWhere compiles and type-checks the optional WHERE predicate.
func (d *DML) resolveWhere(r *resolver, where parser.Expr) error {
	if where == nil {
		return nil
	}
	w, err := r.resolveReadOnly(where)
	if err != nil {
		return fmt.Errorf("in WHERE: %w", err)
	}
	if issues := TypeIssues(w); len(issues) > 0 {
		return fmt.Errorf("qgm: ill-typed %s WHERE: %v", d.Kind, issues[0])
	}
	if k, _ := InferType(w); !IsBoolKind(k) {
		return fmt.Errorf("qgm: %s WHERE is %v, not boolean", d.Kind, k)
	}
	d.Where = w
	return nil
}

// BuildDelete compiles DELETE FROM t [WHERE ...] against the catalog.
func BuildDelete(stmt *parser.DeleteStmt, cat *catalog.Catalog) (*DML, error) {
	d, r, err := bindDML(DMLDelete, stmt.Table, cat)
	if err != nil {
		return nil, err
	}
	if err := d.resolveWhere(r, stmt.Where); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildUpdate compiles UPDATE t SET ... [WHERE ...] against the catalog. Each
// assignment target must be a distinct column of t, and the value expression
// must type-check against the column's kind (integer expressions may feed
// float columns; the executor coerces).
func BuildUpdate(stmt *parser.UpdateStmt, cat *catalog.Catalog) (*DML, error) {
	d, r, err := bindDML(DMLUpdate, stmt.Table, cat)
	if err != nil {
		return nil, err
	}
	if len(stmt.Sets) == 0 {
		return nil, fmt.Errorf("qgm: UPDATE with no SET assignments")
	}
	seen := make(map[int]bool, len(stmt.Sets))
	for _, s := range stmt.Sets {
		idx := -1
		for i, c := range d.Table.Columns {
			if strings.EqualFold(c.Name, s.Col) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("qgm: column %q not in table %s", s.Col, d.Table.Name)
		}
		if seen[idx] {
			return nil, fmt.Errorf("qgm: column %q assigned twice", s.Col)
		}
		seen[idx] = true
		e, err := r.resolveReadOnly(s.Expr)
		if err != nil {
			return nil, fmt.Errorf("in SET %s: %w", s.Col, err)
		}
		if issues := TypeIssues(e); len(issues) > 0 {
			return nil, fmt.Errorf("qgm: ill-typed SET %s: %v", s.Col, issues[0])
		}
		col := d.Table.Columns[idx]
		if k, _ := InferType(e); !assignableKind(k, col.Type) {
			return nil, fmt.Errorf("qgm: SET %s: %v value into %v column", s.Col, k, col.Type)
		}
		d.Sets = append(d.Sets, DMLSet{Col: idx, Expr: e})
	}
	if err := d.resolveWhere(r, stmt.Where); err != nil {
		return nil, err
	}
	return d, nil
}

// assignableKind reports whether a value of kind k may be stored in a column
// of kind col. Unknown (NULL-typed) expressions pass; nullability is enforced
// at execution time, when the actual value is known.
func assignableKind(k, col sqltypes.Kind) bool {
	if isUnknownKind(k) || k == col {
		return true
	}
	// Widening int → float; dates are stored as ints, so int literals may
	// also land in date columns (yyyymmdd form).
	if col == sqltypes.KindFloat && k == sqltypes.KindInt {
		return true
	}
	if col == sqltypes.KindDate && k == sqltypes.KindInt {
		return true
	}
	return false
}
