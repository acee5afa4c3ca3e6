package exec

import (
	"fmt"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// exprCtx evaluates scalar expressions and predicates against a binding.
// Scalar-subquery quantifiers have been pre-evaluated into scalars; ForEach
// quantifiers resolve to a fixed join slot assigned when they entered the
// join, so a column reference is two slice indexes rather than a scan.
type exprCtx struct {
	scalars map[int]sqltypes.Value
	slots   []int // quantifier ID -> binding slot; -1 / out of range = none
}

// setSlot records that quantifier qid occupies the given binding slot.
func (c *exprCtx) setSlot(qid, slot int) {
	for len(c.slots) <= qid {
		c.slots = append(c.slots, -1)
	}
	c.slots[qid] = slot
}

func (c *exprCtx) evalScalar(e qgm.Expr, bd binding) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *qgm.ColRef:
		if t.Q == nil {
			return sqltypes.Null, fmt.Errorf("exec: unbound column reference")
		}
		qid := t.Q.ID
		if len(c.scalars) > 0 {
			if v, ok := c.scalars[qid]; ok {
				return v, nil
			}
		}
		slot := -1
		if qid < len(c.slots) {
			slot = c.slots[qid]
		}
		if slot < 0 || slot >= len(bd) || bd[slot] == nil {
			return sqltypes.Null, fmt.Errorf("exec: quantifier q%d not in scope", qid)
		}
		row := bd[slot]
		if t.Col >= len(row) {
			return sqltypes.Null, fmt.Errorf("exec: column %d out of range (row width %d)", t.Col, len(row))
		}
		return row[t.Col], nil

	case *qgm.Const:
		return t.Peek(), nil

	case *qgm.Call:
		arg, err := c.evalScalar(t.Args[0], bd)
		if err != nil {
			return sqltypes.Null, err
		}
		if arg.IsNull() {
			return sqltypes.Null, nil
		}
		return datePart(t.Name, arg)

	case *qgm.Bin:
		switch t.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			tv, err := c.evalPred(t, bd)
			if err != nil {
				return sqltypes.Null, err
			}
			return tv.Value(), nil
		}
		l, err := c.evalScalar(t.L, bd)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := c.evalScalar(t.R, bd)
		if err != nil {
			return sqltypes.Null, err
		}
		return binOpFn(t.Op)(l, r)

	case *qgm.Not, *qgm.IsNull, *qgm.Like:
		tv, err := c.evalPred(t, bd)
		if err != nil {
			return sqltypes.Null, err
		}
		return tv.Value(), nil

	case *qgm.Agg:
		return sqltypes.Null, fmt.Errorf("exec: aggregate %s outside GROUP BY box", t.String())

	case *qgm.Case:
		for _, w := range t.Whens {
			tv, err := c.evalPred(w.Cond, bd)
			if err != nil {
				return sqltypes.Null, err
			}
			if tv == sqltypes.True {
				return c.evalScalar(w.Then, bd)
			}
		}
		if t.Else != nil {
			return c.evalScalar(t.Else, bd)
		}
		return sqltypes.Null, nil

	default:
		return sqltypes.Null, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (c *exprCtx) evalPred(e qgm.Expr, bd binding) (sqltypes.Tri, error) {
	switch t := e.(type) {
	case *qgm.Bin:
		switch t.Op {
		case "AND":
			l, err := c.evalPred(t.L, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if l == sqltypes.False {
				return sqltypes.False, nil
			}
			r, err := c.evalPred(t.R, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return l.And(r), nil
		case "OR":
			l, err := c.evalPred(t.L, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if l == sqltypes.True {
				return sqltypes.True, nil
			}
			r, err := c.evalPred(t.R, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return l.Or(r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := c.evalScalar(t.L, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			r, err := c.evalScalar(t.R, bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Unknown, nil
			}
			cv, err := sqltypes.Compare(l, r)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return sqltypes.TriOf(cmpWant(t.Op)[1+cv]), nil
		}
		// Arithmetic in predicate position: evaluate and interpret.
		v, err := c.evalScalar(t, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return sqltypes.TriFromValue(v), nil

	case *qgm.Not:
		inner, err := c.evalPred(t.E, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return inner.Not(), nil

	case *qgm.IsNull:
		v, err := c.evalScalar(t.E, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return sqltypes.TriOf(v.IsNull() != t.Neg), nil

	case *qgm.Like:
		v, err := c.evalScalar(t.E, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		p, err := c.evalScalar(t.Pattern, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		if v.IsNull() || p.IsNull() {
			return sqltypes.Unknown, nil
		}
		if v.Kind() != sqltypes.KindString || p.Kind() != sqltypes.KindString {
			return sqltypes.Unknown, fmt.Errorf("exec: LIKE on %s and %s", v.Kind(), p.Kind())
		}
		return sqltypes.TriOf(sqltypes.LikeMatch(v.Str(), p.Str()) != t.Neg), nil

	default:
		v, err := c.evalScalar(e, bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return sqltypes.TriFromValue(v), nil
	}
}

// datePart applies YEAR, MONTH or DAY to a non-NULL value. The accessors
// panic on a value that is not a date or an integer, on every path alike.
func datePart(name string, v sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "year":
		return sqltypes.NewInt(v.DateYear()), nil
	case "month":
		return sqltypes.NewInt(v.DateMonth()), nil
	case "day":
		return sqltypes.NewInt(v.DateDay()), nil
	}
	return sqltypes.Null, fmt.Errorf("exec: unknown function %q", name)
}

// binOpFn maps an arithmetic/concat operator to its sqltypes function.
func binOpFn(op string) func(a, b sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case "||":
		return sqltypes.Concat
	case "+":
		return sqltypes.Add
	case "-":
		return sqltypes.Sub
	case "*":
		return sqltypes.Mul
	case "/":
		return sqltypes.Div
	case "%":
		return sqltypes.Mod
	default:
		return func(a, b sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.Null, fmt.Errorf("exec: unknown operator %q", op)
		}
	}
}

// cmpWant maps a comparison operator to the three-way comparison results it
// holds for, indexed by the result plus one.
func cmpWant(op string) [3]bool {
	switch op {
	case "=":
		return [3]bool{false, true, false}
	case "<>":
		return [3]bool{true, false, true}
	case "<":
		return [3]bool{true, false, false}
	case "<=":
		return [3]bool{true, true, false}
	case ">":
		return [3]bool{false, false, true}
	default:
		return [3]bool{false, true, true}
	}
}
