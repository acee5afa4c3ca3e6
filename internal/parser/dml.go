package parser

import "strings"

// DeleteStmt is DELETE FROM table [WHERE pred]. A missing WHERE deletes every
// row.
type DeleteStmt struct {
	Table string
	Where Expr // nil = unconditional
}

// UpdateSet is one column assignment of an UPDATE.
type UpdateSet struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE table SET col = expr [, ...] [WHERE pred]. Assignment
// expressions may reference the row's current column values.
type UpdateStmt struct {
	Table string
	Sets  []UpdateSet
	Where Expr // nil = every row
}

func (*DeleteStmt) isStatement() {}
func (*UpdateStmt) isStatement() {}

// SQL renders the statement.
func (d *DeleteStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("DELETE FROM " + quoteIdent(d.Table))
	if d.Where != nil {
		sb.WriteString(" WHERE " + d.Where.SQL())
	}
	return sb.String()
}

// SQL renders the statement.
func (u *UpdateStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + quoteIdent(u.Table) + " SET ")
	for i, s := range u.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(s.Col) + " = " + s.Expr.SQL())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE " + u.Where.SQL())
	}
	return sb.String()
}

// parseDelete parses DELETE FROM table [WHERE pred].
func (p *parser) parseDelete() (Statement, error) {
	p.advance() // delete
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// parseUpdate parses UPDATE table SET col = expr [, ...] [WHERE pred]. SET is
// an identifier word (like the statement verbs), not a lexer keyword, so
// columns named "set" stay usable elsewhere.
func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // update
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectIdentWord("set"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.parseIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, UpdateSet{Col: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}
