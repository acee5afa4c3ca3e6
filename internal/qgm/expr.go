// Package qgm implements the Query Graph Model described in §2 of the paper:
// queries are rooted DAGs whose leaf boxes are base tables, whose internal
// boxes are SELECT (select-project-join, predicate application, scalar
// computation) or GROUP BY (grouping + aggregation, possibly over multiple
// grouping sets), and whose edges (quantifiers) carry records from producer
// to consumer boxes.
//
// The package also provides the SQL→QGM builder, a QGM→SQL printer, column
// equivalence classes derived from equality predicates, expression equality,
// and type/nullability inference — the semantic utilities the matching
// algorithm in internal/core relies on.
package qgm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// Expr is a scalar or aggregate expression over the input columns (QNCs) of a
// box. Expressions are immutable once built; rewrites create new nodes.
type Expr interface {
	// String renders a debug form. ColRefs render as quantifier alias +
	// column ordinal/name, so two structurally equal expressions over the
	// same quantifiers render identically.
	String() string
	isExpr()
}

// ColRef is a QNC: a reference to output column Col of the box behind
// quantifier Q.
type ColRef struct {
	Q   *Quantifier
	Col int
}

// Const is a literal constant. Everything that decides something from the
// value while a statement is being planned reads Value, which is what lets a
// cached plan be reused for other literals (see Param); what runs or prints a
// finished plan reads Peek. The value itself is reachable from this file only
// (astlint's boundaries rule), so there is no third way to read it.
type Const struct {
	val sqltypes.Value
	// Param is non-nil on a constant BuildParams read from a literal token of
	// the statement: the value is then that token's as it stood.
	Param *Param
}

// NewConst returns a constant that is no statement literal (no Param).
func NewConst(v sqltypes.Value) *Const { return &Const{val: v} }

// Param is one literal of a statement planned for reuse with other literals
// (BuildParams): Slot indexes the statement's literal vector
// (parser.Template), and every Const read from that literal shares the Param.
// A plan may be bound to another vector (Graph.Bind) exactly when the two
// agree on every pinned slot: planning pins a slot wherever it looks at the
// value, so whatever it decided — x > 10 subsumes x > 20, two IN-lists nest,
// the statement's 1 is the summary table's 1 — rests on pinned values alone
// and the unpinned ones only ever reach the executor. Params are written while
// the one goroutine planning the statement runs and never after.
type Param struct {
	Slot   int
	pinned bool
}

// Pinned reports whether planning has looked at the literal's value.
func (p *Param) Pinned() bool { return p.pinned }

// Value returns the constant's value and pins its literal, if it has one.
func (c *Const) Value() sqltypes.Value {
	if c.Param != nil {
		c.Param.pinned = true
	}
	return c.val
}

// Peek returns the constant's value without pinning its literal: for the
// executor, which runs a finished plan, never for what chooses one — the
// boundaries rule keeps it out of internal/core, internal/catalog and this
// package.
func (c *Const) Peek() sqltypes.Value { return c.val }

// IsNull reports a NULL constant. It pins nothing: NULL is a keyword, part of
// the statement's template, and no literal token's value is NULL.
func (c *Const) IsNull() bool { return c.val.IsNull() }

// Kind returns the value's kind. It pins nothing either: a literal's kind is
// part of the statement's template.
func (c *Const) Kind() sqltypes.Kind { return c.val.Kind() }

// SQL renders the value as a SQL literal, for the printer.
func (c *Const) SQL() string { return c.val.SQLLiteral() }

// Call is a scalar builtin application. Supported: year, month, day.
type Call struct {
	Name string
	Args []Expr
}

// Bin is a binary operator: + - * / % = <> < <= > >= AND OR.
type Bin struct {
	Op   string
	L, R Expr
}

// Not is logical negation.
type Not struct {
	E Expr
}

// IsNull is `e IS [NOT] NULL`.
type IsNull struct {
	E   Expr
	Neg bool
}

// Like is `e [NOT] LIKE pattern` with SQL % and _ wildcards.
type Like struct {
	E, Pattern Expr
	Neg        bool
}

// Agg is an aggregate function application. Aggregates appear in the output
// columns of GROUP BY boxes and inside translated expressions during
// matching. Star marks COUNT(*). Arg is nil iff Star.
type Agg struct {
	Op       string // count, sum, min, max
	Arg      Expr
	Star     bool
	Distinct bool
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expr // may be nil (implicit NULL)
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*ColRef) isExpr() {}
func (*Const) isExpr()  {}
func (*Call) isExpr()   {}
func (*Bin) isExpr()    {}
func (*Not) isExpr()    {}
func (*IsNull) isExpr() {}
func (*Like) isExpr()   {}
func (*Agg) isExpr()    {}
func (*Case) isExpr()   {}

// String renders the QNC as alias.colname when resolvable.
func (c *ColRef) String() string {
	if c.Q == nil {
		return fmt.Sprintf("?.%d", c.Col)
	}
	name := fmt.Sprintf("#%d", c.Col)
	if c.Q.Box != nil && c.Col < len(c.Q.Box.Cols) {
		name = c.Q.Box.Cols[c.Col].Name
	}
	return fmt.Sprintf("q%d.%s", c.Q.ID, name)
}

// String renders the literal — a statement literal as its slot, ?1 being the
// first, so that renderings used as keys while planning (pullup's memo) keep
// two literals of equal value apart and read neither.
func (c *Const) String() string {
	if c.Param != nil {
		return "?" + strconv.Itoa(c.Param.Slot+1)
	}
	return c.SQL()
}

// String renders the call.
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Name + "(" + strings.Join(args, ", ") + ")"
}

// String renders the operator application.
func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// String renders the negation.
func (n *Not) String() string { return "(NOT " + n.E.String() + ")" }

// String renders the null test.
func (i *IsNull) String() string {
	if i.Neg {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// String renders the LIKE test.
func (l *Like) String() string {
	if l.Neg {
		return "(" + l.E.String() + " NOT LIKE " + l.Pattern.String() + ")"
	}
	return "(" + l.E.String() + " LIKE " + l.Pattern.String() + ")"
}

// String renders the aggregate.
func (a *Agg) String() string {
	if a.Star {
		return a.Op + "(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return a.Op + "(" + d + a.Arg.String() + ")"
}

// String renders the CASE expression.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// WalkExpr invokes fn on e and all descendants (pre-order). fn returning
// false prunes descent into that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch t := e.(type) {
	case *Call:
		for _, a := range t.Args {
			WalkExpr(a, fn)
		}
	case *Bin:
		WalkExpr(t.L, fn)
		WalkExpr(t.R, fn)
	case *Not:
		WalkExpr(t.E, fn)
	case *IsNull:
		WalkExpr(t.E, fn)
	case *Like:
		WalkExpr(t.E, fn)
		WalkExpr(t.Pattern, fn)
	case *Agg:
		if t.Arg != nil {
			WalkExpr(t.Arg, fn)
		}
	case *Case:
		for _, w := range t.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		if t.Else != nil {
			WalkExpr(t.Else, fn)
		}
	}
}

// MapExpr rebuilds e bottom-up, replacing each node with fn(node) after its
// children have been mapped. fn receives a node whose children are already
// rewritten; returning the input unchanged is allowed.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *ColRef, *Const:
		return fn(e)
	case *Call:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = MapExpr(a, fn)
		}
		return fn(&Call{Name: t.Name, Args: args})
	case *Bin:
		return fn(&Bin{Op: t.Op, L: MapExpr(t.L, fn), R: MapExpr(t.R, fn)})
	case *Not:
		return fn(&Not{E: MapExpr(t.E, fn)})
	case *IsNull:
		return fn(&IsNull{E: MapExpr(t.E, fn), Neg: t.Neg})
	case *Like:
		return fn(&Like{E: MapExpr(t.E, fn), Pattern: MapExpr(t.Pattern, fn), Neg: t.Neg})
	case *Agg:
		var arg Expr
		if t.Arg != nil {
			arg = MapExpr(t.Arg, fn)
		}
		return fn(&Agg{Op: t.Op, Arg: arg, Star: t.Star, Distinct: t.Distinct})
	case *Case:
		whens := make([]CaseWhen, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = CaseWhen{Cond: MapExpr(w.Cond, fn), Then: MapExpr(w.Then, fn)}
		}
		var els Expr
		if t.Else != nil {
			els = MapExpr(t.Else, fn)
		}
		return fn(&Case{Whens: whens, Else: els})
	default:
		return fn(e)
	}
}

// MapExprTopDown rebuilds e, calling fn on each node before descending; if fn
// returns a replacement (replaced=true), the replacement is used as-is and
// its children are not visited.
func MapExprTopDown(e Expr, fn func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if repl, ok := fn(e); ok {
		return repl
	}
	switch t := e.(type) {
	case *ColRef, *Const:
		return e
	case *Call:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = MapExprTopDown(a, fn)
		}
		return &Call{Name: t.Name, Args: args}
	case *Bin:
		return &Bin{Op: t.Op, L: MapExprTopDown(t.L, fn), R: MapExprTopDown(t.R, fn)}
	case *Not:
		return &Not{E: MapExprTopDown(t.E, fn)}
	case *IsNull:
		return &IsNull{E: MapExprTopDown(t.E, fn), Neg: t.Neg}
	case *Like:
		return &Like{E: MapExprTopDown(t.E, fn), Pattern: MapExprTopDown(t.Pattern, fn), Neg: t.Neg}
	case *Agg:
		var arg Expr
		if t.Arg != nil {
			arg = MapExprTopDown(t.Arg, fn)
		}
		return &Agg{Op: t.Op, Arg: arg, Star: t.Star, Distinct: t.Distinct}
	case *Case:
		whens := make([]CaseWhen, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = CaseWhen{Cond: MapExprTopDown(w.Cond, fn), Then: MapExprTopDown(w.Then, fn)}
		}
		var els Expr
		if t.Else != nil {
			els = MapExprTopDown(t.Else, fn)
		}
		return &Case{Whens: whens, Else: els}
	default:
		return e
	}
}

// ColRefs returns all QNC references in e, in visit order.
func ColRefs(e Expr) []*ColRef {
	var out []*ColRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasAgg reports whether e contains an aggregate function node.
func HasAgg(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*Agg); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// QuantifiersOf returns the distinct quantifiers referenced by e, ordered by ID.
func QuantifiersOf(e Expr) []*Quantifier {
	seen := map[int]*Quantifier{}
	for _, c := range ColRefs(e) {
		if c.Q != nil {
			seen[c.Q.ID] = c.Q
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Quantifier, len(ids))
	for i, id := range ids {
		out[i] = seen[id]
	}
	return out
}

// SplitConjuncts flattens a tree of AND nodes into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll conjoins a list of predicates (nil for an empty list).
func AndAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &Bin{Op: "AND", L: out, R: p}
		}
	}
	return out
}

// OrAll disjoins a list of predicates (nil for an empty list).
func OrAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &Bin{Op: "OR", L: out, R: p}
		}
	}
	return out
}
