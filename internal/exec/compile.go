package exec

import (
	"fmt"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// This file lowers qgm.Expr trees into closures over a binding, once per box.
// They are the target of the chunk pipeline's lifts and nothing else: an
// expression the vector compiler has no kernel for (vector.go: OR, NOT, CASE,
// LIKE, a comparison in scalar position) runs as one of these closures per
// selected row, and the star probe evaluates a dimension's keys, predicates
// and output expressions through them a row at a time while it is built
// (source.go). The reference path does not use them; it walks the tree
// (expr.go). They stay closures because the scoped recompute of a DELETE or
// UPDATE is a lifted OR of ANDs over every chunk of the base table, most of
// that statement's time (DESIGN.md §10.3).
//
// Closures are built after the expression's quantifiers have their binding
// slots (slot numbers and scalar-subquery values are baked in) and are
// read-only over the binding, so the pipeline's workers share them. A node
// shape the compiler does not handle becomes a closure over the interpreter
// for that subtree, so semantics — error messages and three-valued logic
// included — are the interpreter's by construction, and the parity tests
// compare the two.

// scalarKernel evaluates one scalar expression against a binding.
type scalarKernel func(bd binding) (sqltypes.Value, error)

// predKernel evaluates one predicate against a binding under three-valued
// logic.
type predKernel func(bd binding) (sqltypes.Tri, error)

// compileScalar lowers e to a scalarKernel.
func (c *exprCtx) compileScalar(e qgm.Expr) scalarKernel {
	switch t := e.(type) {
	case *qgm.ColRef:
		if t.Q == nil {
			return func(binding) (sqltypes.Value, error) {
				return sqltypes.Null, fmt.Errorf("exec: unbound column reference")
			}
		}
		qid := t.Q.ID
		if len(c.scalars) > 0 {
			if v, ok := c.scalars[qid]; ok {
				return func(binding) (sqltypes.Value, error) { return v, nil }
			}
		}
		slot := -1
		if qid < len(c.slots) {
			slot = c.slots[qid]
		}
		if slot < 0 {
			// Quantifier not slotted at compile time; keep the interpreter's
			// late-binding (and its exact error) for this reference.
			return c.fallbackScalar(e)
		}
		col := t.Col
		return func(bd binding) (sqltypes.Value, error) {
			if slot >= len(bd) || bd[slot] == nil {
				return sqltypes.Null, fmt.Errorf("exec: quantifier q%d not in scope", qid)
			}
			row := bd[slot]
			if col >= len(row) {
				return sqltypes.Null, fmt.Errorf("exec: column %d out of range (row width %d)", col, len(row))
			}
			return row[col], nil
		}

	case *qgm.Const:
		v := t.Peek()
		return func(binding) (sqltypes.Value, error) { return v, nil }

	case *qgm.Call:
		arg, name := c.compileScalar(t.Args[0]), t.Name
		return func(bd binding) (sqltypes.Value, error) {
			v, err := arg(bd)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			return datePart(name, v)
		}

	case *qgm.Bin:
		switch t.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return valueOfPred(c.compilePred(t))
		}
		l, r, fn := c.compileScalar(t.L), c.compileScalar(t.R), binOpFn(t.Op)
		return func(bd binding) (sqltypes.Value, error) {
			lv, err := l(bd)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(bd)
			if err != nil {
				return sqltypes.Null, err
			}
			return fn(lv, rv)
		}

	case *qgm.Not, *qgm.IsNull, *qgm.Like:
		return valueOfPred(c.compilePred(e))

	case *qgm.Agg:
		msg := t.String()
		return func(binding) (sqltypes.Value, error) {
			return sqltypes.Null, fmt.Errorf("exec: aggregate %s outside GROUP BY box", msg)
		}

	case *qgm.Case:
		conds := make([]predKernel, len(t.Whens))
		thens := make([]scalarKernel, len(t.Whens))
		for i, w := range t.Whens {
			conds[i] = c.compilePred(w.Cond)
			thens[i] = c.compileScalar(w.Then)
		}
		var els scalarKernel
		if t.Else != nil {
			els = c.compileScalar(t.Else)
		}
		return func(bd binding) (sqltypes.Value, error) {
			for i := range conds {
				tv, err := conds[i](bd)
				if err != nil {
					return sqltypes.Null, err
				}
				if tv == sqltypes.True {
					return thens[i](bd)
				}
			}
			if els != nil {
				return els(bd)
			}
			return sqltypes.Null, nil
		}

	default:
		return c.fallbackScalar(e)
	}
}

// compilePred lowers e to a predKernel.
func (c *exprCtx) compilePred(e qgm.Expr) predKernel {
	switch t := e.(type) {
	case *qgm.Bin:
		switch t.Op {
		case "AND":
			l := c.compilePred(t.L)
			r := c.compilePred(t.R)
			return func(bd binding) (sqltypes.Tri, error) {
				lv, err := l(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				if lv == sqltypes.False {
					return sqltypes.False, nil
				}
				rv, err := r(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				return lv.And(rv), nil
			}
		case "OR":
			l := c.compilePred(t.L)
			r := c.compilePred(t.R)
			return func(bd binding) (sqltypes.Tri, error) {
				lv, err := l(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				if lv == sqltypes.True {
					return sqltypes.True, nil
				}
				rv, err := r(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				return lv.Or(rv), nil
			}
		case "=", "<>", "<", "<=", ">", ">=":
			l, r, cmp := c.compileScalar(t.L), c.compileScalar(t.R), cmpKeep(t.Op)
			return func(bd binding) (sqltypes.Tri, error) {
				lv, err := l(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				rv, err := r(bd)
				if err != nil {
					return sqltypes.Unknown, err
				}
				if lv.IsNull() || rv.IsNull() {
					return sqltypes.Unknown, nil
				}
				cv, err := sqltypes.Compare(lv, rv)
				if err != nil {
					return sqltypes.Unknown, err
				}
				return sqltypes.TriOf(cmp(cv)), nil
			}
		}
		// Arithmetic in predicate position: evaluate and interpret.
		return predFromScalar(c.compileScalar(t))

	case *qgm.Not:
		inner := c.compilePred(t.E)
		return func(bd binding) (sqltypes.Tri, error) {
			tv, err := inner(bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return tv.Not(), nil
		}

	case *qgm.IsNull:
		sk := c.compileScalar(t.E)
		neg := t.Neg
		return func(bd binding) (sqltypes.Tri, error) {
			v, err := sk(bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			return sqltypes.TriOf(v.IsNull() != neg), nil
		}

	case *qgm.Like:
		vk := c.compileScalar(t.E)
		pk := c.compileScalar(t.Pattern)
		neg := t.Neg
		return func(bd binding) (sqltypes.Tri, error) {
			v, err := vk(bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			p, err := pk(bd)
			if err != nil {
				return sqltypes.Unknown, err
			}
			if v.IsNull() || p.IsNull() {
				return sqltypes.Unknown, nil
			}
			if v.Kind() != sqltypes.KindString || p.Kind() != sqltypes.KindString {
				return sqltypes.Unknown, fmt.Errorf("exec: LIKE on %s and %s", v.Kind(), p.Kind())
			}
			match := sqltypes.LikeMatch(v.Str(), p.Str())
			return sqltypes.TriOf(match != neg), nil
		}

	default:
		return predFromScalar(c.compileScalar(e))
	}
}

// valueOfPred adapts a predicate kernel used in scalar position: the truth
// value as a boolean, Unknown as NULL.
func valueOfPred(pk predKernel) scalarKernel {
	return func(bd binding) (sqltypes.Value, error) {
		tv, err := pk(bd)
		if err != nil {
			return sqltypes.Null, err
		}
		return tv.Value(), nil
	}
}

// predFromScalar adapts a scalar kernel used in predicate position
// (TriFromValue semantics, mirroring evalPred's default arm).
func predFromScalar(sk scalarKernel) predKernel {
	return func(bd binding) (sqltypes.Tri, error) {
		v, err := sk(bd)
		if err != nil {
			return sqltypes.Unknown, err
		}
		return sqltypes.TriFromValue(v), nil
	}
}

// fallbackScalar hands a subtree back to the interpreter unchanged.
func (c *exprCtx) fallbackScalar(e qgm.Expr) scalarKernel {
	return func(bd binding) (sqltypes.Value, error) { return c.evalScalar(e, bd) }
}
