// Command astrw is a small SQL shell over the reproduction: it accepts
// CREATE TABLE (with PRIMARY KEY / UNIQUE / FOREIGN KEY constraints), INSERT,
// DELETE, UPDATE, CREATE SUMMARY TABLE name AS SELECT (the DB2 syntax for
// Automatic Summary Tables), SELECT, EXPLAIN SELECT, and EXPLAIN
// DELETE/UPDATE (per-AST maintenance routing). Every SELECT is first routed
// through the matching algorithm against all registered summary tables; when
// a match is found the rewritten query runs instead and both forms are
// printed. Every DML statement refreshes the summary tables that read the
// mutated table and reports each refresh's route and delta statistics. After
// each statement the shell prints the degradations (core.degraded events)
// the statement recorded.
//
// Usage:
//
//	astrw -f script.sql            # run a script
//	astrw -demo                    # load the paper's star schema + data, then read stdin
//	astrw -demo -explain           # render the full EXPLAIN report for every SELECT
//	astrw -demo -obs               # print the observability snapshot at exit
//	echo "select ..." | astrw -demo
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

type shell struct {
	db         *astdb.Engine
	out        io.Writer
	maxRows    int
	explainAll bool   // -explain: render the EXPLAIN report for every SELECT
	reported   uint64 // sequence number of the last degradation printed
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "astrw: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the script named by -f, the
// statements read from stdin, or an interactive session when stdin is a
// terminal, and writes every report to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("astrw", flag.ExitOnError)
	file := fs.String("f", "", "SQL script to execute (default: stdin)")
	demo := fs.Bool("demo", false, "preload the paper's credit-card star schema with synthetic data")
	scale := fs.Int("scale", 10000, "demo fact-table rows")
	maxRows := fs.Int("maxrows", 20, "maximum result rows to print")
	timeout := fs.Duration("timeout", 0, "per-query execution timeout (0 = none)")
	limit := fs.Int("limit", 0, "per-query row-materialization budget (0 = unlimited)")
	allowStale := fs.Bool("allow-stale", false, "let queries read summary tables marked stale")
	explain := fs.Bool("explain", false, "render the EXPLAIN report for every SELECT instead of executing it")
	obsFlag := fs.Bool("obs", false, "print the observability snapshot at exit")
	fs.Parse(args)

	db, err := astdb.Open(catalog.New(),
		astdb.WithLimits(astdb.Config{MaxRows: *limit, Timeout: *timeout}),
		astdb.WithAllowStale(*allowStale),
		astdb.WithObserver(obs.New()))
	if err != nil {
		return err
	}
	sh := &shell{db: db, out: stdout, maxRows: *maxRows, explainAll: *explain}

	if *demo {
		workload.Schema(db.Catalog())
		workload.Load(db.Catalog(), db.Store(), workload.StarConfig{NumTrans: *scale, Seed: 1})
		fmt.Fprintf(sh.out, "-- demo schema loaded: trans(%d rows), loc, pgroup, acct, cust\n",
			db.Store().MustTable("trans").Cardinality())
	}

	if err := sh.runInput(*file, stdin); err != nil {
		return err
	}
	if *obsFlag {
		fmt.Fprintln(sh.out, "\n-- observability snapshot --")
		db.Snapshot().Render(sh.out)
	}
	return nil
}

// runInput runs the script in file, or else what stdin holds: statement by
// statement when it is a terminal, as one script otherwise.
func (sh *shell) runInput(file string, stdin io.Reader) error {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		return sh.runScript(string(src))
	}
	if interactive(stdin) {
		sh.repl(stdin)
		return nil
	}
	src, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	return sh.runScript(string(src))
}

// interactive reports whether stdin is a terminal.
func interactive(stdin io.Reader) bool {
	f, ok := stdin.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// runScript executes a whole ';'-separated script, stopping at the first
// error.
func (sh *shell) runScript(src string) error {
	stmts, err := parser.ParseScript(src)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		err := sh.exec(stmt)
		sh.reportDegradations()
		if err != nil {
			return err
		}
	}
	return nil
}

// repl reads statements interactively, one ';'-terminated statement at a
// time; errors are reported without exiting.
func (sh *shell) repl(in io.Reader) {
	fmt.Fprintln(sh.out, "astrw — Automatic Summary Table shell. Statements end with ';'. Ctrl-D to exit.")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(sh.out, "ast> ")
		} else {
			fmt.Fprint(sh.out, "...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			if err := sh.runScript(buf.String()); err != nil {
				fmt.Fprintf(sh.out, "error: %v\n", err)
			}
			buf.Reset()
		}
		prompt()
	}
	fmt.Fprintln(sh.out)
}

func (sh *shell) exec(stmt parser.Statement) error {
	switch s := stmt.(type) {
	case *parser.CreateTableStmt:
		return sh.createTable(s)
	case *parser.CreateASTStmt:
		return sh.createAST(s)
	case *parser.InsertStmt:
		return sh.dml(s, "inserted", "into")
	case *parser.DeleteStmt:
		return sh.dml(s, "deleted", "in")
	case *parser.UpdateStmt:
		return sh.dml(s, "updated", "in")
	case *parser.ExplainStmt:
		if s.DML != nil {
			return sh.explainDML(s.DML)
		}
		return sh.explain(s.Query)
	case *parser.SelectStmt:
		if sh.explainAll {
			return sh.explain(s)
		}
		return sh.query(s)
	case *parser.LoadStmt:
		return sh.load(s)
	default:
		return fmt.Errorf("unsupported statement %T", stmt)
	}
}

// load bulk-loads a CSV file into a declared table, coercing cells by the
// declared column types. An optional header row matching the column names is
// skipped. Empty cells become NULL.
func (sh *shell) load(s *parser.LoadStmt) error {
	meta, ok := sh.db.Catalog().Table(s.Table)
	if !ok {
		return fmt.Errorf("table %q not found", s.Table)
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	r.FieldsPerRecord = -1 // our own arity check reports a clearer error
	first := true
	var rows [][]sqltypes.Value
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			if isHeaderRow(rec, meta) {
				continue
			}
		}
		if len(rec) != len(meta.Columns) {
			return fmt.Errorf("%s: row %d has %d cells, table has %d columns", s.Path, len(rows)+1, len(rec), len(meta.Columns))
		}
		row := make([]sqltypes.Value, len(rec))
		for i, cell := range rec {
			v, err := coerceCell(cell, meta.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("%s: row %d column %s: %w", s.Path, len(rows)+1, meta.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	stats, err := sh.db.Insert(context.Background(), s.Table, rows)
	if err != nil && stats == nil {
		return err
	}
	fmt.Fprintf(sh.out, "-- loaded %d row(s) into %s from %s\n", len(rows), s.Table, s.Path)
	sh.reportMaintenance(stats)
	return nil
}

func isHeaderRow(rec []string, meta *catalog.Table) bool {
	if len(rec) != len(meta.Columns) {
		return false
	}
	for i, cell := range rec {
		if !strings.EqualFold(strings.TrimSpace(cell), meta.Columns[i].Name) {
			return false
		}
	}
	return true
}

func coerceCell(cell string, kind sqltypes.Kind) (sqltypes.Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" || strings.EqualFold(cell, "null") {
		return sqltypes.Null, nil
	}
	switch kind {
	case sqltypes.KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(i), nil
	case sqltypes.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(f), nil
	case sqltypes.KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(b), nil
	case sqltypes.KindDate:
		return sqltypes.ParseDate(cell)
	default:
		return sqltypes.NewString(cell), nil
	}
}

func (sh *shell) createTable(s *parser.CreateTableStmt) error {
	t := &catalog.Table{Name: s.Name, PrimaryKey: s.PrimaryKey, UniqueKeys: s.Uniques}
	for _, c := range s.Columns {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type, Nullable: !c.NotNull})
	}
	if err := sh.db.CreateTable(t); err != nil {
		return err
	}
	for _, fk := range s.ForeignKeys {
		if err := sh.db.AddForeignKey(catalog.ForeignKey{
			ChildTable: s.Name, ChildCols: fk.Cols,
			ParentTable: fk.ParentTable, ParentCols: fk.ParentCols,
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(sh.out, "-- created table %s\n", s.Name)
	return nil
}

func (sh *shell) createAST(s *parser.CreateASTStmt) error {
	_, rows, err := sh.db.CreateSummaryTable(context.Background(), s.Name, s.Query.SQL())
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "-- summary table %s materialized (%d rows)\n", s.Name, rows)
	return nil
}

// reportMaintenance surfaces per-AST refresh outcomes after an insert,
// delete, or update.
func (sh *shell) reportMaintenance(stats []astdb.Stats) {
	for _, st := range stats {
		fmt.Fprintf(sh.out, "-- %s\n", st)
	}
}

// dml executes one already-parsed INSERT, DELETE or UPDATE through the facade
// and reports the affected-row count plus per-AST maintenance outcomes.
func (sh *shell) dml(stmt parser.Statement, verb, prep string) error {
	res, err := sh.db.ExecParsed(context.Background(), stmt)
	if err != nil && res == nil {
		return err
	}
	fmt.Fprintf(sh.out, "-- %s %d row(s) %s %s\n", verb, res.Affected, prep, res.Table)
	sh.reportMaintenance(res.Stats)
	return nil
}

// explainDML prints the maintenance routing a DELETE or UPDATE would take.
func (sh *shell) explainDML(stmt parser.Statement) error {
	rep, err := sh.db.ExplainDML(context.Background(), stmt.SQL())
	if err != nil {
		return err
	}
	fmt.Fprint(sh.out, rep.Render())
	return nil
}

// explain renders the deterministic EXPLAIN report for one query.
func (sh *shell) explain(s *parser.SelectStmt) error {
	fmt.Fprintln(sh.out)
	rep, err := sh.db.Explain(context.Background(), s.SQL())
	if err != nil {
		return err
	}
	rep.Render(sh.out)
	return nil
}

// tableList names the summary tables a plan reads, in splice order: "summary
// table a", "summary tables a, b", or "summary table ?" when they are not known
// (a plan-cache hit carries no match details).
func tableList(names []string) string {
	switch len(names) {
	case 0:
		return "summary table ?"
	case 1:
		return "summary table " + names[0]
	}
	return "summary tables " + strings.Join(names, ", ")
}

func (sh *shell) query(s *parser.SelectStmt) error {
	fmt.Fprintf(sh.out, "\n> %s\n", s.SQL())
	ans, err := sh.db.Query(context.Background(), s.SQL())
	if err != nil {
		return err
	}
	switch {
	case ans.FellBack:
		fmt.Fprintf(sh.out, "-- %s unusable at execution time; answered from base tables\n", tableList(ans.Rewrite.Tables()))
	case len(ans.ASTs) > 0:
		note := ""
		if ans.CacheHit {
			note = " (cached plan)"
		}
		fmt.Fprintf(sh.out, "-- rewritten to read %s%s:\n--   %s\n", tableList(ans.ASTs), note, ans.Plan.SQL())
	case len(sh.db.ASTs()) > 0:
		fmt.Fprintln(sh.out, "-- no summary table matches; executing against base tables")
	}
	res := ans.Result()
	astdb.SortRows(res.Rows)
	sh.printResult(res)
	return nil
}

// reportDegradations prints the core.degraded events newer than the last one
// it printed (recovered match panics, discarded invalid rewrites) as comments,
// so degraded service is visible, not silent.
func (sh *shell) reportDegradations() {
	for _, ev := range sh.db.Snapshot().Events {
		if ev.Kind == "core.degraded" && ev.Seq > sh.reported {
			fmt.Fprintf(sh.out, "-- degraded: %s\n", ev.Detail)
			sh.reported = ev.Seq
		}
	}
}

func (sh *shell) printResult(r *exec.Result) {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	n := len(r.Rows)
	shown := n
	if shown > sh.maxRows {
		shown = sh.maxRows
	}
	cells := make([][]string, shown)
	for i := 0; i < shown; i++ {
		cells[i] = make([]string, len(r.Rows[i]))
		for j, v := range r.Rows[i] {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Cols {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(pad(c, widths[i]))
	}
	fmt.Fprintln(sh.out, sb.String())
	for i := 0; i < shown; i++ {
		sb.Reset()
		for j, c := range cells[i] {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(pad(c, widths[j]))
		}
		fmt.Fprintln(sh.out, sb.String())
	}
	if shown < n {
		fmt.Fprintf(sh.out, "... (%d more rows)\n", n-shown)
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", n)
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}
