package qgm

import (
	"repro/internal/sqltypes"
)

// Equiv tracks column-equivalence classes within one SELECT box, derived from
// its equality predicates: the join predicate faid = aid makes the QNCs faid
// and aid interchangeable in expression matching (paper §4.1.1 example,
// "our algorithm is able to recognize such column equivalence").
//
// It is a union-find over QNC keys.
type Equiv struct {
	parent map[int64]int64
}

// NewEquiv returns an empty equivalence relation.
func NewEquiv() *Equiv {
	return &Equiv{parent: make(map[int64]int64)}
}

func qncKey(c *ColRef) int64 {
	return int64(c.Q.ID)<<32 | int64(uint32(c.Col))
}

func (e *Equiv) find(k int64) int64 {
	p, ok := e.parent[k]
	if !ok || p == k {
		return k
	}
	root := e.find(p)
	e.parent[k] = root
	return root
}

// Union merges the classes of two QNCs.
func (e *Equiv) Union(a, b *ColRef) {
	ra, rb := e.find(qncKey(a)), e.find(qncKey(b))
	if ra != rb {
		e.parent[ra] = rb
	}
}

// Same reports whether two QNCs are in the same class (always true for the
// identical QNC).
func (e *Equiv) Same(a, b *ColRef) bool {
	return e.find(qncKey(a)) == e.find(qncKey(b))
}

// EquivFromPreds builds equivalence classes from the equality predicates of a
// SELECT box: every conjunct of the form QNC = QNC merges the two classes.
func EquivFromPreds(preds []Expr) *Equiv {
	eq := NewEquiv()
	for _, p := range preds {
		if b, ok := p.(*Bin); ok && b.Op == "=" {
			l, lok := b.L.(*ColRef)
			r, rok := b.R.(*ColRef)
			if lok && rok {
				eq.Union(l, r)
			}
		}
	}
	return eq
}

// ExprEqual reports semantic equality of two expressions: structural
// equality, modulo commutativity of +, *, =, <>, AND and OR, comparison
// flipping (a < b ≡ b > a), and QNC equivalence classes (eq may be nil for
// purely structural comparison).
func ExprEqual(a, b Expr, eq *Equiv) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		if !ok {
			return false
		}
		if x.Q == y.Q && x.Col == y.Col {
			return true
		}
		return eq != nil && eq.Same(x, y)
	case *Const:
		y, ok := b.(*Const)
		if !ok {
			return false
		}
		if x.Param != nil && x.Param == y.Param {
			return true // one literal of the statement, equal whatever its value
		}
		return sqltypes.Identical(x.Value(), y.Value())
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !ExprEqual(x.Args[i], y.Args[i], eq) {
				return false
			}
		}
		return true
	case *Bin:
		y, ok := b.(*Bin)
		if !ok {
			return false
		}
		if x.Op == y.Op {
			if ExprEqual(x.L, y.L, eq) && ExprEqual(x.R, y.R, eq) {
				return true
			}
			if isCommutative(x.Op) && ExprEqual(x.L, y.R, eq) && ExprEqual(x.R, y.L, eq) {
				return true
			}
			return false
		}
		// a < b  ≡  b > a, etc.
		if flipCmp(x.Op) == y.Op {
			return ExprEqual(x.L, y.R, eq) && ExprEqual(x.R, y.L, eq)
		}
		return false
	case *Not:
		y, ok := b.(*Not)
		return ok && ExprEqual(x.E, y.E, eq)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Neg == y.Neg && ExprEqual(x.E, y.E, eq)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Neg == y.Neg && ExprEqual(x.E, y.E, eq) && ExprEqual(x.Pattern, y.Pattern, eq)
	case *Agg:
		y, ok := b.(*Agg)
		if !ok || x.Op != y.Op || x.Star != y.Star || x.Distinct != y.Distinct {
			return false
		}
		if x.Star {
			return true
		}
		return ExprEqual(x.Arg, y.Arg, eq)
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) {
			return false
		}
		for i := range x.Whens {
			if !ExprEqual(x.Whens[i].Cond, y.Whens[i].Cond, eq) ||
				!ExprEqual(x.Whens[i].Then, y.Whens[i].Then, eq) {
				return false
			}
		}
		return ExprEqual(x.Else, y.Else, eq)
	default:
		return false
	}
}

func isCommutative(op string) bool {
	switch op {
	case "+", "*", "=", "<>", "AND", "OR":
		return true
	default:
		return false
	}
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	case "=":
		return "="
	case "<>":
		return "<>"
	default:
		return ""
	}
}

// Subsumes reports whether predicate p1 subsumes p2 — every row eliminated by
// p1 is also eliminated by p2 (paper footnote 4: "x > 10 subsumes x > 20").
// It recognizes equal predicates and single-sided range comparisons over
// semantically equal expressions with constant bounds. When p1 subsumes p2
// but they are not equal, the caller must re-apply p2 in the compensation.
func Subsumes(p1, p2 Expr, eq *Equiv) bool {
	if ExprEqual(p1, p2, eq) {
		return true
	}
	// IN-list containment: `x IN (bigger set)` subsumes `x IN (subset)`
	// (IN desugars to a disjunction of equalities at build time).
	if s1, e1, ok1 := inSet(p1); ok1 {
		if s2, e2, ok2 := inSet(p2); ok2 && ExprEqual(e1, e2, eq) {
			for k := range s2 {
				if !s1[k] {
					return false
				}
			}
			return true
		}
		return false
	}
	c1, ok1 := asRangeCmp(p1)
	c2, ok2 := asRangeCmp(p2)
	if !ok1 || !ok2 {
		return false
	}
	if !ExprEqual(c1.expr, c2.expr, eq) {
		return false
	}
	cmp, err := sqltypes.Compare(c1.bound.Value(), c2.bound.Value())
	if err != nil {
		return false
	}
	// p1 keeps rows with expr OP1 bound1; it subsumes p2 (expr OP2 bound2)
	// when the p2-interval is contained in the p1-interval.
	switch c1.op {
	case ">":
		return (c2.op == ">" && cmp <= 0) || (c2.op == ">=" && cmp < 0) || (c2.op == "=" && cmp < 0)
	case ">=":
		return (c2.op == ">" && cmp <= 0) || (c2.op == ">=" && cmp <= 0) || (c2.op == "=" && cmp <= 0)
	case "<":
		return (c2.op == "<" && cmp >= 0) || (c2.op == "<=" && cmp > 0) || (c2.op == "=" && cmp > 0)
	case "<=":
		return (c2.op == "<" && cmp >= 0) || (c2.op == "<=" && cmp >= 0) || (c2.op == "=" && cmp >= 0)
	default: // "<>": a p1 of "=" is an IN list of one, decided above
		return (c2.op == "<>" && cmp == 0) ||
			(c2.op == ">" && cmp <= 0) || (c2.op == "<" && cmp >= 0) ||
			(c2.op == ">=" && cmp < 0) || (c2.op == "<=" && cmp > 0) ||
			(c2.op == "=" && cmp != 0)
	}
}

// inSet reads the IN list Subsumes decides — one expression, no IS NULL term —
// as its constants keyed by GroupKey, pinning each, and the tested expression.
func inSet(p Expr) (map[string]bool, Expr, bool) {
	exprs, consts, ok := AsInList(p)
	if !ok || len(exprs) != 1 {
		return nil, nil, false
	}
	set := make(map[string]bool, len(consts))
	for _, c := range consts {
		if c == nil {
			return nil, nil, false
		}
		set[c.Value().GroupKey()] = true
	}
	return set, exprs[0], true
}

// AsInList recognizes a disjunction of conjunctions of point terms over one
// list of expressions, named in the same order in every disjunct:
// `(e1 = c AND e2 IS NULL AND …) OR (…)`, where a point term is `e = c` or
// `c = e` with c a non-NULL constant, or `e IS NULL`. The desugared `x IN (…)`
// is its one-expression case, a single equality included, and the key
// predicate of a scoped recompute its general one. It returns the expressions
// and each disjunct's constants in turn, one per expression (nil for IS NULL),
// without reading them; only the expressions are compared, by ExprEqual.
func AsInList(p Expr) (exprs []Expr, consts []*Const, ok bool) {
	l := inList{}
	if !l.disjunct(p) {
		return nil, nil, false
	}
	return l.exprs, l.consts, true
}

type inList struct {
	exprs  []Expr
	consts []*Const
	terms  int // terms read so far of the disjunct being read
}

func (l *inList) disjunct(e Expr) bool {
	if b, ok := e.(*Bin); ok && b.Op == "OR" {
		return l.disjunct(b.L) && l.disjunct(b.R)
	}
	l.terms = 0
	return l.term(e) && l.terms == len(l.exprs)
}

func (l *inList) term(e Expr) bool {
	var x Expr
	var c *Const
	switch t := e.(type) {
	case *Bin:
		if t.Op == "AND" {
			return l.term(t.L) && l.term(t.R)
		}
		isConst := false
		if c, isConst = t.R.(*Const); isConst {
			x = t.L
		} else if c, isConst = t.L.(*Const); isConst {
			x = t.R
		}
		if t.Op != "=" || !isConst || c.IsNull() {
			return false
		}
	case *IsNull:
		if t.Neg {
			return false
		}
		x = t.E
	default:
		return false
	}
	if len(l.consts) == l.terms { // the first disjunct names the expressions
		l.exprs = append(l.exprs, x)
	} else if l.terms == len(l.exprs) || !ExprEqual(l.exprs[l.terms], x, nil) {
		return false
	}
	l.terms++
	l.consts = append(l.consts, c)
	return true
}

type rangeCmp struct {
	expr  Expr
	op    string
	bound *Const // read (and pinned) only once the two sides test one expression
}

// asRangeCmp recognizes `expr OP const` (or `const OP expr`, flipped).
func asRangeCmp(p Expr) (rangeCmp, bool) {
	b, ok := p.(*Bin)
	if !ok {
		return rangeCmp{}, false
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return rangeCmp{}, false
	}
	if c, ok := b.R.(*Const); ok && !c.IsNull() {
		return rangeCmp{expr: b.L, op: b.Op, bound: c}, true
	}
	if c, ok := b.L.(*Const); ok && !c.IsNull() {
		return rangeCmp{expr: b.R, op: flipCmp(b.Op), bound: c}, true
	}
	return rangeCmp{}, false
}
