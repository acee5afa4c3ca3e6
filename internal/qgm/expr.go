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
// finished plan reads Peek. A planning read that does not pin fails
// internal/core's TestPinCompleteness, which binds cached plans to other
// literals and compares them with plans made from scratch.
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
// executor, which runs a finished plan, never for what chooses one.
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
// false prunes descent into that node's children. It allocates nothing.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	eachChild(e, false, func(c Expr) (Expr, error) {
		WalkExpr(c, fn)
		return c, nil
	})
}

// MapExpr rebuilds e bottom-up, replacing each node with fn(node) after its
// children have been mapped. fn receives a node whose children are already
// rewritten; returning the input unchanged is allowed.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	out, _ := MapChildren(e, func(c Expr) (Expr, error) { return MapExpr(c, fn), nil })
	return fn(out)
}

// MapExprTopDown rebuilds e, calling fn on each node before descending; if fn
// returns a replacement (replaced=true), the replacement is used as-is and
// its children are not visited.
func MapExprTopDown(e Expr, fn func(Expr) (Expr, bool)) Expr {
	if repl, ok := fn(e); ok {
		return repl
	}
	out, _ := MapChildren(e, func(c Expr) (Expr, error) { return MapExprTopDown(c, fn), nil })
	return out
}

// MapChildren returns a new node of e's kind whose children are fn's results
// for e's children, in order, or fn's first error. A leaf (ColRef, Const) is
// returned as it is. It is the step every recursive rewrite of an expression
// takes at a node it does not rewrite itself.
func MapChildren(e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	return eachChild(e, true, fn)
}

// eachChild is the one place that knows each node kind's children: it passes
// them to fn in order — an absent Agg.Arg or Case.Else is skipped — and stops
// at fn's first error. With rebuild set it returns a new node holding fn's
// results; without, it returns e and allocates nothing (WalkExpr).
func eachChild(e Expr, rebuild bool, fn func(Expr) (Expr, error)) (Expr, error) {
	var err error
	child := func(c Expr) Expr {
		if c == nil || err != nil {
			return c
		}
		c, err = fn(c)
		return c
	}
	switch t := e.(type) {
	case *Call:
		var args []Expr
		if rebuild {
			args = make([]Expr, len(t.Args))
		}
		for i, a := range t.Args {
			a = child(a)
			if rebuild {
				args[i] = a
			}
		}
		if rebuild {
			e = &Call{Name: t.Name, Args: args}
		}
	case *Bin:
		l, r := child(t.L), child(t.R)
		if rebuild {
			e = &Bin{Op: t.Op, L: l, R: r}
		}
	case *Not:
		x := child(t.E)
		if rebuild {
			e = &Not{E: x}
		}
	case *IsNull:
		x := child(t.E)
		if rebuild {
			e = &IsNull{E: x, Neg: t.Neg}
		}
	case *Like:
		x, p := child(t.E), child(t.Pattern)
		if rebuild {
			e = &Like{E: x, Pattern: p, Neg: t.Neg}
		}
	case *Agg:
		x := child(t.Arg)
		if rebuild {
			e = &Agg{Op: t.Op, Arg: x, Star: t.Star, Distinct: t.Distinct}
		}
	case *Case:
		var whens []CaseWhen
		if rebuild {
			whens = make([]CaseWhen, len(t.Whens))
		}
		for i, w := range t.Whens {
			w = CaseWhen{Cond: child(w.Cond), Then: child(w.Then)}
			if rebuild {
				whens[i] = w
			}
		}
		x := child(t.Else)
		if rebuild {
			e = &Case{Whens: whens, Else: x}
		}
	}
	if err != nil {
		return nil, err
	}
	return e, nil
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
