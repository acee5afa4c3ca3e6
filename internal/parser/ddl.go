package parser

import (
	"fmt"
	"strings"

	"repro/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	Node
	isStatement()
}

func (*SelectStmt) isStatement()      {}
func (*LoadStmt) isStatement()        {}
func (*CreateTableStmt) isStatement() {}
func (*CreateASTStmt) isStatement()   {}
func (*InsertStmt) isStatement()      {}
func (*ExplainStmt) isStatement()     {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    sqltypes.Kind
	NotNull bool
}

// TableFK is an inline FOREIGN KEY clause.
type TableFK struct {
	Cols        []string
	ParentTable string
	ParentCols  []string
}

// CreateTableStmt is CREATE TABLE name (cols..., PRIMARY KEY(...), UNIQUE(...),
// FOREIGN KEY(...) REFERENCES parent(...)).
type CreateTableStmt struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	Uniques     [][]string
	ForeignKeys []TableFK
}

// CreateASTStmt is CREATE SUMMARY TABLE name AS <select> — the DB2 syntax for
// Automatic Summary Tables.
type CreateASTStmt struct {
	Name  string
	Query *SelectStmt
}

// InsertStmt is INSERT INTO name VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// ExplainStmt is EXPLAIN <select> (the CLI prints the rewrite instead of, or
// in addition to, executing) or EXPLAIN <delete|update> (the CLI prints the
// per-AST maintenance routing). Exactly one of Query and DML is set.
type ExplainStmt struct {
	Query *SelectStmt
	DML   Statement // *DeleteStmt or *UpdateStmt
}

// LoadStmt is LOAD TABLE name FROM 'path.csv' — a shell extension for bulk
// loading CSV files into a declared table.
type LoadStmt struct {
	Table string
	Path  string
}

// SQL renders the statement.
func (l *LoadStmt) SQL() string {
	return "LOAD TABLE " + l.Table + " FROM '" + l.Path + "'"
}

// SQL renders the statement.
func (c *CreateTableStmt) SQL() string {
	var parts []string
	for _, col := range c.Columns {
		s := col.Name + " " + typeName(col.Type)
		if col.NotNull {
			s += " NOT NULL"
		}
		parts = append(parts, s)
	}
	if len(c.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(c.PrimaryKey, ", ")+")")
	}
	for _, u := range c.Uniques {
		parts = append(parts, "UNIQUE ("+strings.Join(u, ", ")+")")
	}
	for _, fk := range c.ForeignKeys {
		parts = append(parts, "FOREIGN KEY ("+strings.Join(fk.Cols, ", ")+") REFERENCES "+
			fk.ParentTable+" ("+strings.Join(fk.ParentCols, ", ")+")")
	}
	return "CREATE TABLE " + c.Name + " (" + strings.Join(parts, ", ") + ")"
}

// SQL renders the statement.
func (c *CreateASTStmt) SQL() string {
	return "CREATE SUMMARY TABLE " + c.Name + " AS " + c.Query.SQL()
}

// SQL renders the statement.
func (i *InsertStmt) SQL() string {
	var rows []string
	for _, r := range i.Rows {
		cells := make([]string, len(r))
		for j, e := range r {
			cells[j] = e.SQL()
		}
		rows = append(rows, "("+strings.Join(cells, ", ")+")")
	}
	return "INSERT INTO " + i.Table + " VALUES " + strings.Join(rows, ", ")
}

// SQL renders the statement.
func (e *ExplainStmt) SQL() string {
	if e.DML != nil {
		return "EXPLAIN " + e.DML.SQL()
	}
	return "EXPLAIN " + e.Query.SQL()
}

func typeName(k sqltypes.Kind) string { return k.String() }

// ParseScript parses a sequence of ';'-separated statements (a trailing ';'
// is optional).
func ParseScript(src string) ([]Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var out []Statement
	for {
		for p.isOp(";") {
			p.advance()
		}
		if p.peek().Kind == TokEOF {
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if p.peek().Kind != TokEOF {
			if err := p.expectOp(";"); err != nil {
				return nil, err
			}
		}
	}
}

// ParseStatement parses a single statement of any kind.
func ParseStatement(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parser: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	switch {
	case t.Kind == TokKeyword && t.Text == "SELECT":
		return p.parseSelect()
	case t.Kind == TokIdent && t.Text == "create":
		return p.parseCreate()
	case t.Kind == TokIdent && t.Text == "insert":
		return p.parseInsert()
	case t.Kind == TokIdent && t.Text == "load":
		p.advance()
		if err := p.expectIdentWord("table"); err != nil {
			return nil, err
		}
		name, err := p.parseIdent("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
		pathTok := p.peek()
		if pathTok.Kind != TokString {
			return nil, p.errf("expected quoted file path, got %s", pathTok)
		}
		p.advance()
		return &LoadStmt{Table: name, Path: pathTok.Text}, nil
	case t.Kind == TokIdent && t.Text == "delete":
		return p.parseDelete()
	case t.Kind == TokIdent && t.Text == "update":
		return p.parseUpdate()
	case t.Kind == TokIdent && t.Text == "explain":
		p.advance()
		if n := p.peek(); n.Kind == TokIdent && (n.Text == "delete" || n.Text == "update") {
			var dml Statement
			var err error
			if n.Text == "delete" {
				dml, err = p.parseDelete()
			} else {
				dml, err = p.parseUpdate()
			}
			if err != nil {
				return nil, err
			}
			return &ExplainStmt{DML: dml}, nil
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	default:
		return nil, p.errf("expected a statement, got %s", t)
	}
}

func (p *parser) expectIdentWord(word string) error {
	t := p.peek()
	if t.Kind == TokIdent && t.Text == word {
		p.advance()
		return nil
	}
	return p.errf("expected %s, got %s", strings.ToUpper(word), t)
}

func (p *parser) acceptIdentWord(word string) bool {
	t := p.peek()
	if t.Kind == TokIdent && t.Text == word {
		p.advance()
		return true
	}
	return false
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // create
	if p.acceptIdentWord("summary") {
		if err := p.expectIdentWord("table"); err != nil {
			return nil, err
		}
		name, err := p.parseIdent("summary table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateASTStmt{Name: name, Query: q}, nil
	}
	if err := p.expectIdentWord("table"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		switch {
		case p.acceptIdentWord("primary"):
			if err := p.expectIdentWord("key"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			stmt.PrimaryKey = cols
		case p.acceptIdentWord("unique"):
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			stmt.Uniques = append(stmt.Uniques, cols)
		case p.acceptIdentWord("foreign"):
			if err := p.expectIdentWord("key"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if err := p.expectIdentWord("references"); err != nil {
				return nil, err
			}
			parent, err := p.parseIdent("parent table")
			if err != nil {
				return nil, err
			}
			pcols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			stmt.ForeignKeys = append(stmt.ForeignKeys, TableFK{Cols: cols, ParentTable: parent, ParentCols: pcols})
		default:
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
		}
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.parseIdent("column name")
	if err != nil {
		return ColumnDef{}, err
	}
	typeTok := p.peek()
	var typeWord string
	switch {
	case typeTok.Kind == TokIdent:
		typeWord = typeTok.Text
		p.advance()
	case typeTok.Kind == TokKeyword && typeTok.Text == "DATE":
		typeWord = "date"
		p.advance()
	default:
		return ColumnDef{}, p.errf("expected column type, got %s", typeTok)
	}
	var kind sqltypes.Kind
	switch typeWord {
	case "int", "integer", "bigint", "smallint":
		kind = sqltypes.KindInt
	case "double", "float", "real", "decimal", "numeric":
		kind = sqltypes.KindFloat
	case "varchar", "char", "text", "string":
		kind = sqltypes.KindString
	case "boolean", "bool":
		kind = sqltypes.KindBool
	case "date":
		kind = sqltypes.KindDate
	default:
		return ColumnDef{}, p.errf("unknown column type %q", typeWord)
	}
	// Optional length, e.g. VARCHAR(32).
	if p.acceptOp("(") {
		if p.peek().Kind != TokNumber {
			return ColumnDef{}, p.errf("expected length, got %s", p.peek())
		}
		p.advance()
		if err := p.expectOp(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	col := ColumnDef{Name: name, Type: kind}
	if p.acceptKeyword("NOT") {
		if err := p.expectKeyword("NULL"); err != nil {
			return ColumnDef{}, err
		}
		col.NotNull = true
	}
	return col, nil
}

func (p *parser) parseIdent(what string) (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		if t.Kind == TokKeyword && t.Text == "DATE" {
			p.advance()
			return "date", nil
		}
		return "", p.errf("expected %s, got %s", what, t)
	}
	p.advance()
	return t.Text, nil
}

func (p *parser) parseParenIdentList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.parseIdent("column name")
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // insert
	if err := p.expectIdentWord("into"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectIdentWord("values"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return stmt, nil
}
