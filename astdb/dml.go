package astdb

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
)

// DMLResult reports one executed INSERT, DELETE or UPDATE: the target table,
// how many rows the statement affected, and the per-AST maintenance outcomes.
type DMLResult struct {
	Table    string
	Affected int
	Stats    []maintain.Stats
}

// Delete executes DELETE FROM t [WHERE ...] and refreshes every summary table
// whose definition reads t — by count-tracked delta retirement where the
// maintenance plan allows, by full recomputation otherwise. Per-AST refresh
// failures are recorded in the returned Stats (the AST goes stale) and joined
// into the returned error; a statement-level error (parse, unknown table,
// predicate evaluation) aborts before anything is mutated.
func (e *Engine) Delete(ctx context.Context, sql string) (*DMLResult, error) {
	return e.execSQL(ctx, sql, "DELETE")
}

// Update executes UPDATE t SET ... [WHERE ...] and refreshes every summary
// table whose definition reads t; the incremental path applies the delete
// delta of the old rows and the insert delta of the new rows in one merge.
// Error semantics match Delete.
func (e *Engine) Update(ctx context.Context, sql string) (*DMLResult, error) {
	return e.execSQL(ctx, sql, "UPDATE")
}

// ExecStatement executes one DML statement given as SQL text — INSERT ...
// VALUES, DELETE, or UPDATE — and reports the affected-row count plus the
// per-AST maintenance outcomes. It is the single statement entry point the
// wire server's exec message and the driver's ExecContext map to; SELECTs
// belong to Query and DDL to CreateTable/CreateSummaryTable.
func (e *Engine) ExecStatement(ctx context.Context, sql string) (*DMLResult, error) {
	return e.execSQL(ctx, sql, "")
}

// execSQL parses sql once, checks it is the kind of statement the caller asked
// for ("" accepts any DML), and hands the statement to ExecParsed.
func (e *Engine) execSQL(ctx context.Context, sql, want string) (*DMLResult, error) {
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	if got := statementKind(stmt); want != "" && got != want {
		return nil, fmt.Errorf("%w: expected %s, got %s", ErrParse, want, got)
	}
	return e.ExecParsed(ctx, stmt)
}

// ExecParsed executes one already-parsed INSERT ... VALUES, DELETE or UPDATE
// as the engine's writer (see write): the statement is compiled, applied to
// its base table, and every summary table reading that table is refreshed.
func (e *Engine) ExecParsed(ctx context.Context, stmt parser.Statement) (*DMLResult, error) {
	_, done, err := e.write(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	switch s := stmt.(type) {
	case *parser.InsertStmt:
		table, rows, err := e.literalRows(s)
		if err != nil {
			return nil, err
		}
		stats, err := e.insert(table, rows)
		if err != nil && stats == nil {
			return nil, err
		}
		return &DMLResult{Table: table, Affected: len(rows), Stats: stats}, err
	case *parser.DeleteStmt, *parser.UpdateStmt:
		dml, err := e.compileDML(stmt)
		if err != nil {
			return nil, err
		}
		apply := e.maint.ApplyDelete
		if dml.Kind == qgm.DMLUpdate {
			apply = e.maint.ApplyUpdate
		}
		n, stats, err := apply(e.set.Load().plans, dml)
		return &DMLResult{Table: dml.Table.Name, Affected: n, Stats: stats}, valueError(err)
	default:
		return nil, fmt.Errorf("%w: expected INSERT, DELETE, or UPDATE, got %s", ErrParse, statementKind(stmt))
	}
}

// compileDML builds one parsed DELETE or UPDATE against the catalog, rejecting
// statements that target a summary table: materializations are
// system-maintained, and mutating one directly would silently break the
// freshness contract.
func (e *Engine) compileDML(stmt parser.Statement) (*qgm.DML, error) {
	var table string
	var build func() (*qgm.DML, error)
	switch t := stmt.(type) {
	case *parser.DeleteStmt:
		table, build = t.Table, func() (*qgm.DML, error) { return qgm.BuildDelete(t, e.cat) }
	case *parser.UpdateStmt:
		table, build = t.Table, func() (*qgm.DML, error) { return qgm.BuildUpdate(t, e.cat) }
	default:
		return nil, fmt.Errorf("%w: expected DELETE or UPDATE, got %s", ErrParse, statementKind(stmt))
	}
	if err := e.rejectSummaryTarget(table); err != nil {
		return nil, err
	}
	dml, err := build()
	if err != nil {
		return nil, compileError(err)
	}
	if e.verifyPlans {
		if verr := qgmcheck.AsError(qgmcheck.CheckDML(dml)); verr != nil {
			return nil, fmt.Errorf("astdb: built %v failed verification: %w", dml.Kind, verr)
		}
	}
	return dml, nil
}

// rejectSummaryTarget returns ErrWriteProtected when table names a registered
// summary table: materializations are system-maintained.
func (e *Engine) rejectSummaryTarget(table string) error {
	for _, def := range e.cat.ASTs() {
		if strings.EqualFold(def.Name, table) {
			return fmt.Errorf("%w: %q is system-maintained", ErrWriteProtected, table)
		}
	}
	return nil
}

// statementKind names a parsed statement for error messages.
func statementKind(stmt parser.Statement) string {
	switch stmt.(type) {
	case *parser.InsertStmt:
		return "INSERT"
	case *parser.DeleteStmt:
		return "DELETE"
	case *parser.UpdateStmt:
		return "UPDATE"
	case *parser.SelectStmt:
		return "SELECT"
	case *parser.CreateTableStmt:
		return "CREATE TABLE"
	case *parser.CreateASTStmt:
		return "CREATE SUMMARY TABLE"
	case *parser.ExplainStmt:
		return "EXPLAIN"
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

// literalRows turns a parsed INSERT ... VALUES into rows for its table:
// literal values only. Fitting each value to its column — NOT NULL, kinds, ISO
// strings into DATE columns — is the maintainer's, as it is for UPDATE's SET
// values. Summary tables are write-protected here exactly like DELETE/UPDATE
// targets.
func (e *Engine) literalRows(s *parser.InsertStmt) (string, [][]sqltypes.Value, error) {
	if err := e.rejectSummaryTarget(s.Table); err != nil {
		return "", nil, err
	}
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return "", nil, fmt.Errorf("%w: %q", ErrUnknownTable, s.Table)
	}
	rows := make([][]sqltypes.Value, 0, len(s.Rows))
	for _, row := range s.Rows {
		vals := make([]sqltypes.Value, len(row))
		for i, expr := range row {
			lit, ok := expr.(*parser.Lit)
			if !ok {
				return "", nil, fmt.Errorf("%w: INSERT values must be literals, got %s", ErrParse, expr.SQL())
			}
			vals[i] = lit.Val
		}
		rows = append(rows, vals)
	}
	return meta.Name, rows, nil
}

// MaintenanceRoute is one summary table's entry in a maintenance-routing
// report: how DML on the probed table refreshes it, and why.
type MaintenanceRoute struct {
	AST      string
	Strategy string // "incremental" or "full"
	Reason   string // why full, when it is ("" for incremental)
	Status   string // catalog status: "fresh", "stale", or "quarantined"
}

// MaintenanceReport is the EXPLAIN of a DELETE or UPDATE: instead of a query
// plan it shows, per summary table reading the target table, the maintenance
// routing the statement would take. Rendering is deterministic (routes in AST
// name order).
type MaintenanceReport struct {
	Statement string
	Kind      string // "DELETE" or "UPDATE"
	Table     string
	Routes    []MaintenanceRoute
}

// ExplainDML plans one DELETE or UPDATE statement without executing it and
// reports its per-AST maintenance routing. The statement is fully compiled
// (parse, bind, type-check), so EXPLAIN rejects exactly what execution would.
func (e *Engine) ExplainDML(ctx context.Context, sql string) (*MaintenanceReport, error) {
	span := e.startSpan(ctx, "explain")
	defer span.End()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	if ex, ok := stmt.(*parser.ExplainStmt); ok && ex.DML != nil {
		stmt = ex.DML
	}
	dml, err := e.compileDML(stmt)
	if err != nil {
		return nil, err
	}
	rep := &MaintenanceReport{Statement: stmt.SQL(), Kind: dml.Kind.String(), Table: dml.Table.Name}
	plans := e.set.Load().plans
	for _, ca := range sortedByName(e.ASTs()) {
		var p *maintain.Plan
		for _, cand := range plans {
			if cand.Name() == ca.Def.Name {
				p = cand
				break
			}
		}
		if p == nil || !p.ReadsTable(dml.Table.Name) {
			continue
		}
		route := MaintenanceRoute{AST: p.Name(), Status: "fresh"}
		st := e.cat.Status(p.Name())
		switch {
		case st.Quarantined:
			route.Status = "quarantined"
		case st.Stale:
			route.Status = "stale"
		}
		strat, reason := p.DeleteRouting(dml.Table.Name)
		if strat == maintain.Incremental && route.Status != "fresh" {
			// Runtime forces untrusted materializations through a full
			// recompute; report the routing that would actually run.
			strat, reason = maintain.FullRecompute, "materialization is "+route.Status+"; recovery requires a full recompute"
		}
		route.Strategy = strat.String()
		route.Reason = reason
		rep.Routes = append(rep.Routes, route)
	}
	return rep, nil
}

// Render formats the report for the CLI.
func (r *MaintenanceReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: maintenance routing\n", r.Kind, r.Table)
	if len(r.Routes) == 0 {
		sb.WriteString("  no summary table reads " + r.Table + "\n")
		return sb.String()
	}
	for _, rt := range r.Routes {
		fmt.Fprintf(&sb, "  %s [%s]: %s", rt.AST, rt.Status, rt.Strategy)
		if rt.Reason != "" {
			sb.WriteString(" — " + rt.Reason)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
