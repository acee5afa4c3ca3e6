package qgm

// Expression-level type discipline, shared by two consumers: Build rejects
// definitely ill-typed queries at the door (a bare `where (date)` or
// `0 like ''` is a semantic error, not a plan), and internal/qgmcheck reports
// the same issues as named types/* violations when verifying plans the
// matcher assembled. Checking is conservative: sqltypes.KindNull acts as an
// unknown wildcard (scalar subqueries, untyped constants, unresolvable
// inputs), and only definite disagreements are issues. Comparisons admit what
// sqltypes.Comparable does. Dates are stored as int64 yyyymmdd, so the
// numeric family {Int, Float, Date} is arithmetic-capable; strings and
// booleans are not.

import (
	"fmt"

	"repro/internal/sqltypes"
)

// TypeIssue is one definite expression-level type error. Class is a short
// slug ("logic", "compare", "concat", "arith", "like", "call", "agg-arg",
// "case"); qgmcheck prefixes it with "types/" for its rule taxonomy.
type TypeIssue struct {
	Class  string
	Detail string
}

func (t TypeIssue) String() string { return t.Class + ": " + t.Detail }

func isUnknownKind(k sqltypes.Kind) bool { return k == sqltypes.KindNull }

func isNumericKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindFloat || k == sqltypes.KindDate || isUnknownKind(k)
}

// IsBoolKind reports whether a kind may stand where SQL requires a boolean
// (KindNull counts: unknown never convicts).
func IsBoolKind(k sqltypes.Kind) bool { return k == sqltypes.KindBool || isUnknownKind(k) }

func isStringKind(k sqltypes.Kind) bool { return k == sqltypes.KindString || isUnknownKind(k) }

// comparableKinds reports whether two operand kinds may appear on the two
// sides of a comparison operator: where sqltypes.Compare answers, or a kind
// is unknown.
func comparableKinds(a, b sqltypes.Kind) bool {
	return isUnknownKind(a) || isUnknownKind(b) || sqltypes.Comparable(a, b)
}

// TypeIssues walks one expression bottom-up and collects each node whose
// operand kinds are definitely wrong. Resolution failures (dangling
// references) infer as unknown and stay silent here — they are binding
// errors, not type errors.
func TypeIssues(e Expr) []TypeIssue {
	var out []TypeIssue
	add := func(class, format string, args ...any) {
		out = append(out, TypeIssue{Class: class, Detail: fmt.Sprintf(format, args...)})
	}
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *Bin:
			lk, _ := inferType(t.L)
			rk, _ := inferType(t.R)
			switch t.Op {
			case "AND", "OR":
				if !IsBoolKind(lk) || !IsBoolKind(rk) {
					add("logic", "%s over non-boolean operand (%v, %v)", t.Op, lk, rk)
				}
			case "=", "<>", "<", "<=", ">", ">=":
				if !comparableKinds(lk, rk) {
					add("compare", "comparison %s between incompatible kinds %v and %v", t.Op, lk, rk)
				}
			case "||":
				if !isStringKind(lk) || !isStringKind(rk) {
					add("concat", "|| over non-string operand (%v, %v)", lk, rk)
				}
			case "+", "-", "*", "/", "%":
				if !isNumericKind(lk) || !isNumericKind(rk) {
					add("arith", "arithmetic %s over non-numeric operand (%v, %v)", t.Op, lk, rk)
				}
			default:
				add("arith", "unknown binary operator %q", t.Op)
			}
		case *Not:
			if k, _ := inferType(t.E); !IsBoolKind(k) {
				add("logic", "NOT over non-boolean operand (%v)", k)
			}
		case *Like:
			ek, _ := inferType(t.E)
			pk, _ := inferType(t.Pattern)
			if !isStringKind(ek) || !isStringKind(pk) {
				add("like", "LIKE over non-string operand (%v LIKE %v)", ek, pk)
			}
		case *Call:
			switch t.Name {
			case "year", "month", "day":
				if len(t.Args) != 1 {
					add("call", "%s takes 1 argument, got %d", t.Name, len(t.Args))
					break
				}
				if k, _ := inferType(t.Args[0]); !(k == sqltypes.KindDate || k == sqltypes.KindInt || isUnknownKind(k)) {
					add("call", "%s over non-date argument (%v)", t.Name, k)
				}
			default:
				add("call", "unknown builtin %q", t.Name)
			}
		case *Agg:
			if t.Arg == nil {
				break
			}
			k, _ := inferType(t.Arg)
			switch t.Op {
			case "sum": // AVG too: Build makes it SUM / COUNT
				if !isNumericKind(k) || k == sqltypes.KindDate {
					add("agg-arg", "SUM over non-numeric argument (%v)", k)
				}
			case "min", "max":
				if k == sqltypes.KindBool {
					add("agg-arg", "%s over boolean argument", t.Op)
				}
			}
		case *Case:
			var kinds []sqltypes.Kind
			for i, w := range t.Whens {
				if ck, _ := inferType(w.Cond); !IsBoolKind(ck) {
					add("case", "WHEN %d condition has non-boolean type %v", i, ck)
				}
				tk, _ := inferType(w.Then)
				kinds = append(kinds, tk)
			}
			if t.Else != nil {
				ek, _ := inferType(t.Else)
				kinds = append(kinds, ek)
			}
			var rep sqltypes.Kind = sqltypes.KindNull
			for _, k := range kinds {
				if isUnknownKind(k) {
					continue
				}
				if isUnknownKind(rep) {
					rep = k
					continue
				}
				if rep != k && !(isNumericKind(rep) && isNumericKind(k)) {
					add("case", "CASE branches disagree on result kind (%v vs %v)", rep, k)
				}
			}
		}
		return true
	})
	return out
}
