package parser

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/sqltypes"
)

// Node is implemented by all parse-tree nodes.
type Node interface {
	// SQL renders the node back to SQL text (used in error messages, the CLI,
	// and round-trip tests).
	SQL() string
}

// Expr is a scalar expression parse node.
type Expr interface {
	Node
	isExpr()
}

// SelectStmt is a single SELECT block.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []GroupingElem
	Having   Expr
	OrderBy  []OrderItem
}

// SelectItem is one element of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // "" when unaliased
	Star  bool   // SELECT * (Expr nil)
}

// OrderItem is one element of ORDER BY (kept for CLI convenience; ordering is
// irrelevant to matching and ignored by the rewriter).
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-list element: either a named table or a derived table.
type TableRef struct {
	Table    string      // base table or view/AST name
	Subquery *SelectStmt // non-nil for derived tables
	Alias    string
}

// GroupingElemKind distinguishes plain expressions from supergroup functions.
type GroupingElemKind uint8

const (
	// GroupExpr is a plain grouping expression.
	GroupExpr GroupingElemKind = iota
	// GroupRollup is ROLLUP(e1, ..., en).
	GroupRollup
	// GroupCube is CUBE(e1, ..., en).
	GroupCube
	// GroupSets is GROUPING SETS((..), (..), ...).
	GroupSets
)

// GroupingElem is one element of a GROUP BY clause. For GroupExpr, Exprs has
// exactly one entry. For GroupRollup/GroupCube, Exprs are the arguments. For
// GroupSets, Sets holds each parenthesized grouping set.
type GroupingElem struct {
	Kind  GroupingElemKind
	Exprs []Expr
	Sets  [][]Expr
}

// --- expression nodes ---

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Qualifier string // table name or alias; "" if unqualified
	Name      string
}

// Lit is a literal constant. Param is the number of the literal token it was
// read from (Token.Param), 0 for NULL, TRUE and FALSE, which are keywords.
// Pinned marks a Val the parser computed from that token's value — a folded
// unary minus, a DATE conversion — rather than took as it stood: a plan built
// from this node holds only for the value the token had (qgm.Param).
type Lit struct {
	Val    sqltypes.Value
	Param  int
	Pinned bool
}

// BinExpr is a binary operator application. Op is one of
// + - * / % = <> < <= > >= AND OR.
type BinExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

// FuncCall is a function application: scalar builtins (YEAR, MONTH, DAY) and
// aggregates (COUNT, SUM, MIN, MAX, AVG). Star marks COUNT(*).
type FuncCall struct {
	Name     string // lowercase
	Args     []Expr
	Distinct bool
	Star     bool
}

// IsNullExpr is `e IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// BetweenExpr is `e BETWEEN lo AND hi` (Not for NOT BETWEEN).
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// InExpr is `e IN (v1, ..., vn)` over a literal/expression list.
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// LikeExpr is `e [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct {
	Query *SelectStmt
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*ColRef) isExpr()       {}
func (*Lit) isExpr()          {}
func (*BinExpr) isExpr()      {}
func (*UnaryExpr) isExpr()    {}
func (*FuncCall) isExpr()     {}
func (*IsNullExpr) isExpr()   {}
func (*BetweenExpr) isExpr()  {}
func (*InExpr) isExpr()       {}
func (*LikeExpr) isExpr()     {}
func (*SubqueryExpr) isExpr() {}
func (*CaseExpr) isExpr()     {}

// SQL implementations.

// quoteIdent renders an identifier so it re-lexes to the same token: bare
// when it already has the shape of an unquoted identifier (which the lexer
// folds to lower case), double-quoted otherwise (mixed case, spaces,
// keyword collisions, exotic runes).
func quoteIdent(s string) string {
	if plainIdent(s) {
		return s
	}
	return `"` + s + `"`
}

func plainIdent(s string) bool {
	if _, reserved := keyword(s); s == "" || strings.ContainsRune(s, '"') || reserved {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || unicode.IsLower(r):
		case i > 0 && r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return true
}

// SQL renders the column reference.
func (c *ColRef) SQL() string {
	if c.Qualifier != "" {
		return quoteIdent(c.Qualifier) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// SQL renders the literal.
func (l *Lit) SQL() string { return l.Val.SQLLiteral() }

// SQL renders the binary expression fully parenthesized.
func (b *BinExpr) SQL() string {
	return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")"
}

// SQL renders the unary expression.
func (u *UnaryExpr) SQL() string {
	if u.Op == "NOT" {
		return "(NOT " + u.E.SQL() + ")"
	}
	return "(-" + u.E.SQL() + ")"
}

// SQL renders the call.
func (f *FuncCall) SQL() string {
	if f.Star {
		return quoteIdent(f.Name) + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return quoteIdent(f.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// SQL renders the IS NULL test.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return "(" + i.E.SQL() + " IS NOT NULL)"
	}
	return "(" + i.E.SQL() + " IS NULL)"
}

// SQL renders the BETWEEN test.
func (b *BetweenExpr) SQL() string {
	n := ""
	if b.Not {
		n = "NOT "
	}
	return "(" + b.E.SQL() + " " + n + "BETWEEN " + b.Lo.SQL() + " AND " + b.Hi.SQL() + ")"
}

// SQL renders the IN test.
func (in *InExpr) SQL() string {
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.SQL()
	}
	n := ""
	if in.Not {
		n = "NOT "
	}
	return "(" + in.E.SQL() + " " + n + "IN (" + strings.Join(items, ", ") + "))"
}

// SQL renders the LIKE test.
func (l *LikeExpr) SQL() string {
	n := ""
	if l.Not {
		n = "NOT "
	}
	return "(" + l.E.SQL() + " " + n + "LIKE " + l.Pattern.SQL() + ")"
}

// SQL renders the scalar subquery.
func (s *SubqueryExpr) SQL() string { return "(" + s.Query.SQL() + ")" }

// SQL renders the CASE expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Then.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SQL renders the whole SELECT statement.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			sb.WriteString(" AS " + quoteIdent(it.Alias))
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.SQL())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	return sb.String()
}

// SQL renders the FROM element.
func (t *TableRef) SQL() string {
	var base string
	if t.Subquery != nil {
		base = "(" + t.Subquery.SQL() + ")"
	} else {
		base = quoteIdent(t.Table)
	}
	if t.Alias != "" && t.Alias != t.Table {
		return base + " AS " + quoteIdent(t.Alias)
	}
	return base
}

// SQL renders the grouping element.
func (g *GroupingElem) SQL() string {
	exprList := func(es []Expr) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = e.SQL()
		}
		return strings.Join(parts, ", ")
	}
	switch g.Kind {
	case GroupExpr:
		return g.Exprs[0].SQL()
	case GroupRollup:
		return "ROLLUP(" + exprList(g.Exprs) + ")"
	case GroupCube:
		return "CUBE(" + exprList(g.Exprs) + ")"
	case GroupSets:
		sets := make([]string, len(g.Sets))
		for i, s := range g.Sets {
			sets[i] = "(" + exprList(s) + ")"
		}
		return "GROUPING SETS(" + strings.Join(sets, ", ") + ")"
	default:
		return fmt.Sprintf("<bad grouping elem kind %d>", g.Kind)
	}
}
