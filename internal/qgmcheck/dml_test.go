package qgmcheck_test

// Seeded-corruption tests for CheckDML over compiled DELETE/UPDATE statements.
// Same discipline as the SELECT-rewrite suite: a healthy statement passes,
// then each test applies one corruption of the kind a binder bug would
// produce and asserts the named rule rejects it.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
)

func compileDML(t *testing.T, env *bench.Env, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	var dml *qgm.DML
	switch s := stmt.(type) {
	case *parser.DeleteStmt:
		dml, err = qgm.BuildDelete(s, env.Cat)
	case *parser.UpdateStmt:
		dml, err = qgm.BuildUpdate(s, env.Cat)
	default:
		t.Fatalf("not a DML statement: %s", sql)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dml
}

// wantViolation asserts at least one violation carries the named rule.
func wantViolation(t *testing.T, vs []qgmcheck.Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			if v.Detail == "" {
				t.Errorf("rule %s fired without a diagnostic detail", rule)
			}
			return
		}
	}
	t.Errorf("expected a %s violation, got %d other(s): %v", rule, len(vs), vs)
}

func TestCheckDMLAcceptsCompiledStatements(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	for _, sql := range []string{
		`delete from trans where qty = 2`,
		`delete from trans`,
		`update trans set qty = qty + 1 where flid = 3`,
		`update trans set price = 2, disc = disc / 2 where qty > 1`,
		`update trans set date = 19950304 where tid = 1`,
	} {
		if vs := qgmcheck.CheckDML(compileDML(t, env, sql)); len(vs) > 0 {
			t.Errorf("%s: clean compiled statement rejected: %v", sql, vs)
		}
	}
}

// A WHERE operand re-pointed at a quantifier the statement does not own — the
// dangling binding a broken clone would leave behind.
func TestCheckDMLRejectsForeignQuantifier(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `delete from trans where qty = 2`)
	foreign := &qgm.Quantifier{ID: 9999, Box: d.Q.Box}
	d.Where.(*qgm.Bin).L = &qgm.ColRef{Q: foreign, Col: 0}
	wantViolation(t, qgmcheck.CheckDML(d), "dml/binding")
}

// A column ordinal past the table's arity must be reported, not chased into a
// panic by type inference.
func TestCheckDMLRejectsOutOfRangeColumn(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `update trans set qty = 3 where flid = 1`)
	d.Sets[0].Expr = &qgm.ColRef{Q: d.Q, Col: len(d.Table.Columns) + 7}
	wantViolation(t, qgmcheck.CheckDML(d), "dml/binding")
}

// An aggregate smuggled into a row-local SET expression.
func TestCheckDMLRejectsAggregateInSet(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `update trans set qty = 3`)
	d.Sets[0].Expr = &qgm.Agg{Op: "sum", Arg: d.Sets[0].Expr}
	wantViolation(t, qgmcheck.CheckDML(d), "dml/agg")
}

// A non-boolean WHERE (a bare int column as the predicate).
func TestCheckDMLRejectsNonBooleanWhere(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `delete from trans where qty = 2`)
	d.Where = &qgm.ColRef{Q: d.Q, Col: 0} // tid: INT
	wantViolation(t, qgmcheck.CheckDML(d), "dml/where")
}

// The quantifier re-bound to a table other than the statement's target.
func TestCheckDMLRejectsTableMismatch(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `delete from trans where qty = 2`)
	other, ok := env.Cat.Table("acct")
	if !ok {
		t.Fatal("acct not in catalog")
	}
	d.Table = other
	wantViolation(t, qgmcheck.CheckDML(d), "dml/shape")
}

// SET assignments on a DELETE, and a duplicated assignment on an UPDATE.
func TestCheckDMLRejectsSetShapeCorruption(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `delete from trans`)
	u := compileDML(t, env, `update trans set qty = 3`)
	d.Sets = append(d.Sets, u.Sets[0])
	wantViolation(t, qgmcheck.CheckDML(d), "dml/set")

	u.Sets = append(u.Sets, u.Sets[0])
	wantViolation(t, qgmcheck.CheckDML(u), "dml/set")
}

// A date-typed value assigned into an int column.
func TestCheckDMLRejectsSetTypeMismatch(t *testing.T) {
	env := bench.NewEnv(60, core.Options{})
	d := compileDML(t, env, `update trans set qty = 3`)
	dateCol := -1
	for i, c := range d.Table.Columns {
		if c.Type == sqltypes.KindDate {
			dateCol = i
			break
		}
	}
	if dateCol < 0 {
		t.Fatal("trans has no date column")
	}
	d.Sets[0].Expr = &qgm.ColRef{Q: d.Q, Col: dateCol}
	wantViolation(t, qgmcheck.CheckDML(d), "dml/set")
}
