package parser

import (
	"fmt"
	"strings"

	"repro/internal/sqltypes"
)

// Parse parses a single SELECT statement (optionally terminated by ';').
func Parse(src string) (*SelectStmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokOp && p.peek().Text == ";" {
		p.advance()
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected trailing token %s", p.peek())
	}
	return stmt, nil
}

// MustParse is Parse that panics on error; for tests and built-in workloads.
func MustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseExpr parses a standalone scalar expression; only tests call it.
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected trailing token %s", p.peek())
	}
	return e, nil
}

type parser struct {
	src  string
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	pos := p.peek().Pos
	line := 1
	for _, c := range p.src[:min(pos, len(p.src))] {
		if c == '\n' {
			line++
		}
	}
	return fmt.Errorf("parser: line %d (offset %d): %s", line, pos, fmt.Sprintf(format, args...))
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) isOp(op string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == op
}

func (p *parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %s", op, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}

	// Select list.
	for {
		if p.isOp("*") {
			p.advance()
			stmt.Items = append(stmt.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				t := p.peek()
				if t.Kind != TokIdent {
					return nil, p.errf("expected alias after AS, got %s", t)
				}
				item.Alias = p.advance().Text
			} else if p.peek().Kind == TokIdent {
				item.Alias = p.advance().Text
			}
			stmt.Items = append(stmt.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseGroupingElem()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("HAVING") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.acceptOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if err := p.expectOp(")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
	} else {
		t := p.peek()
		if t.Kind != TokIdent {
			return ref, p.errf("expected table name, got %s", t)
		}
		ref.Table = p.advance().Text
	}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind != TokIdent {
			return ref, p.errf("expected alias after AS, got %s", t)
		}
		ref.Alias = p.advance().Text
	} else if p.peek().Kind == TokIdent {
		ref.Alias = p.advance().Text
	}
	if ref.Alias == "" {
		ref.Alias = ref.Table
	}
	return ref, nil
}

func (p *parser) parseGroupingElem() (GroupingElem, error) {
	if p.isKeyword("ROLLUP") || p.isKeyword("CUBE") {
		kind := GroupRollup
		if p.peek().Text == "CUBE" {
			kind = GroupCube
		}
		p.advance()
		if err := p.expectOp("("); err != nil {
			return GroupingElem{}, err
		}
		var exprs []Expr
		for {
			e, err := p.parseOr()
			if err != nil {
				return GroupingElem{}, err
			}
			exprs = append(exprs, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return GroupingElem{}, err
		}
		return GroupingElem{Kind: kind, Exprs: exprs}, nil
	}
	if p.isKeyword("GROUPING") {
		// Could be GROUPING SETS(...) — GROUPING(x) the scalar function is not
		// in this subset.
		p.advance()
		if err := p.expectKeyword("SETS"); err != nil {
			return GroupingElem{}, err
		}
		if err := p.expectOp("("); err != nil {
			return GroupingElem{}, err
		}
		var sets [][]Expr
		for {
			set, err := p.parseGroupingSet()
			if err != nil {
				return GroupingElem{}, err
			}
			sets = append(sets, set)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return GroupingElem{}, err
		}
		return GroupingElem{Kind: GroupSets, Sets: sets}, nil
	}
	e, err := p.parseOr()
	if err != nil {
		return GroupingElem{}, err
	}
	return GroupingElem{Kind: GroupExpr, Exprs: []Expr{e}}, nil
}

// parseGroupingSet parses one element of GROUPING SETS: either a single
// expression, () (the grand total), or a parenthesized expression list.
func (p *parser) parseGroupingSet() ([]Expr, error) {
	if p.acceptOp("(") {
		if p.acceptOp(")") {
			return []Expr{}, nil // grand total ()
		}
		var set []Expr
		for {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			set = append(set, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return set, nil
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return []Expr{e}, nil
}

// Expression grammar, lowest to highest precedence:
//   OR, AND, NOT, comparison/IS/BETWEEN/IN, additive, multiplicative, unary, primary.

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	// [NOT] BETWEEN / IN
	not := false
	if p.isKeyword("NOT") && (p.peek2().Text == "BETWEEN" || p.peek2().Text == "IN" || p.peek2().Text == "LIKE") {
		p.advance()
		not = true
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	if p.acceptKeyword("LIKE") {
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := &LikeExpr{E: l, Pattern: pat, Not: not}
		return like, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.isOp(op) {
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("+"):
			op = "+"
		case p.isOp("-"):
			op = "-"
		case p.isOp("||"):
			op = "||"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("*"):
			op = "*"
		case p.isOp("/"):
			op = "/"
		case p.isOp("%"):
			op = "%"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation into numeric literals immediately.
		if lit, ok := e.(*Lit); ok && lit.Val.IsNumeric() {
			nv, err := sqltypes.Neg(lit.Val)
			if err == nil {
				return &Lit{Val: nv, Param: lit.Param, Pinned: true}, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber || t.Kind == TokString:
		p.advance()
		v, err := t.literal()
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &Lit{Val: v, Param: t.Param}, nil

	case t.Kind == TokKeyword && t.Text == "NULL":
		p.advance()
		return &Lit{Val: sqltypes.Null}, nil

	case t.Kind == TokKeyword && (t.Text == "TRUE" || t.Text == "FALSE"):
		p.advance()
		return &Lit{Val: sqltypes.NewBool(t.Text == "TRUE")}, nil

	case t.Kind == TokKeyword && t.Text == "DATE":
		// DATE 'yyyy-mm-dd' literal — but only when followed by a string;
		// otherwise `date` is an ordinary column name (the paper's Trans
		// table has a date column).
		if p.peek2().Kind == TokString {
			p.advance()
			st := p.advance()
			v, err := sqltypes.ParseDate(st.Text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Lit{Val: v, Param: st.Param, Pinned: true}, nil
		}
		p.advance()
		if p.isOp(".") {
			p.advance()
			c := p.peek()
			if c.Kind != TokIdent && !(c.Kind == TokKeyword && c.Text == "DATE") {
				return nil, p.errf("expected column name after date., got %s", c)
			}
			p.advance()
			return &ColRef{Qualifier: "date", Name: strings.ToLower(c.Text)}, nil
		}
		return &ColRef{Name: "date"}, nil

	case t.Kind == TokKeyword && t.Text == "CASE":
		return p.parseCase()

	case t.Kind == TokOp && t.Text == "(":
		p.advance()
		if p.isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Query: sub}, nil
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == TokIdent:
		p.advance()
		// Function call?
		if p.isOp("(") {
			p.advance()
			f := &FuncCall{Name: t.Text}
			if p.acceptOp("*") {
				f.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return f, nil
			}
			if p.acceptKeyword("DISTINCT") {
				f.Distinct = true
			} else {
				p.acceptKeyword("ALL")
			}
			if !p.isOp(")") {
				for {
					arg, err := p.parseOr()
					if err != nil {
						return nil, err
					}
					f.Args = append(f.Args, arg)
					if !p.acceptOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Qualified column?
		if p.isOp(".") {
			p.advance()
			c := p.peek()
			if c.Kind != TokIdent && !(c.Kind == TokKeyword && c.Text == "DATE") {
				return nil, p.errf("expected column name after %q., got %s", t.Text, c)
			}
			p.advance()
			return &ColRef{Qualifier: t.Text, Name: strings.ToLower(c.Text)}, nil
		}
		return &ColRef{Name: t.Text}, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
