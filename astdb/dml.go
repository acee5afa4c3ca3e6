package astdb

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// DMLResult reports one executed INSERT, DELETE or UPDATE: the target table,
// how many rows the statement affected, and the per-AST maintenance outcomes.
type DMLResult struct {
	Table    string
	Affected int
	Stats    []maintain.Stats
}

// ExecStatement executes one DML statement given as SQL text — INSERT ...
// VALUES, DELETE, or UPDATE — and reports the affected-row count plus the
// per-AST maintenance outcomes. It is the single statement entry point the
// wire server's exec message and the driver's ExecContext map to; SELECTs
// belong to Query and DDL to CreateTable/CreateSummaryTable.
func (e *Engine) ExecStatement(ctx context.Context, sql string) (*DMLResult, error) {
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
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
	set := e.set.Load() // only a writer publishes it, and this one holds the slot
	switch s := stmt.(type) {
	case *parser.InsertStmt:
		table, rows, err := e.literalRows(set, s)
		if err != nil {
			return nil, err
		}
		stats, err := e.insert(table, rows)
		if err != nil && stats == nil {
			return nil, err
		}
		return &DMLResult{Table: table, Affected: len(rows), Stats: stats}, err
	case *parser.DeleteStmt, *parser.UpdateStmt:
		dml, err := e.compileDML(set, stmt)
		if err != nil {
			return nil, err
		}
		apply := e.maint.ApplyDelete
		if dml.Kind == qgm.DMLUpdate {
			apply = e.maint.ApplyUpdate
		}
		n, stats, err := apply(set.plans, dml)
		return &DMLResult{Table: dml.Table.Name, Affected: n, Stats: stats}, valueError(err)
	default:
		return nil, fmt.Errorf("%w: expected INSERT, DELETE, or UPDATE, got %s", ErrParse, statementKind(stmt))
	}
}

// compileDML builds one parsed DELETE or UPDATE against the catalog, rejecting
// statements that target a summary table of set: materializations are
// system-maintained, and mutating one directly would silently break the
// freshness contract.
func (e *Engine) compileDML(set astSet, stmt parser.Statement) (*qgm.DML, error) {
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
	if err := set.rejectTarget(table); err != nil {
		return nil, err
	}
	dml, err := build()
	if err != nil {
		return nil, compileError(err)
	}
	return dml, nil
}

// rejectTarget returns ErrWriteProtected when table names a summary table of
// the set: materializations are system-maintained.
func (s astSet) rejectTarget(table string) error {
	if s.index(table) >= 0 {
		return fmt.Errorf("%w: %q is system-maintained", ErrWriteProtected, table)
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
func (e *Engine) literalRows(set astSet, s *parser.InsertStmt) (string, [][]sqltypes.Value, error) {
	if err := set.rejectTarget(s.Table); err != nil {
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
	set, pin := e.view()
	dml, err := e.compileDML(set, stmt)
	if err != nil {
		return nil, err
	}
	rep := &MaintenanceReport{Statement: stmt.SQL(), Kind: dml.Kind.String(), Table: dml.Table.Name}
	plans := slices.Clone(set.plans)
	slices.SortFunc(plans, func(a, b *maintain.Plan) int { return strings.Compare(a.Name(), b.Name()) })
	statuses := pin.Statuses()
	for _, p := range plans {
		if !p.ReadsTable(dml.Table.Name) {
			continue
		}
		route := MaintenanceRoute{AST: p.Name(), Status: "fresh"}
		st := statuses.Status(p.Name())
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
