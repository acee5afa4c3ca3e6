package qgm

import (
	"fmt"
	"strings"
)

// SQL renders the graph back to executable SQL text. The printer merges the
// canonical three-box block shape (upper SELECT over GROUP BY over lower
// SELECT) into a single SQL block, so rewritten queries read like the paper's
// NewQ examples. Boxes that don't fit a block shape render as derived tables.
func (g *Graph) SQL() string {
	return renderQuery(g.Root)
}

// renderQuery renders any box as a standalone SELECT statement.
// It is never a base table: a FROM item that is one renders as its name.
func renderQuery(b *Box) string {
	if b.Kind == GroupByBox {
		// A GROUP BY box as query root: synthesize the enclosing block.
		return renderBlock(nil, b, b.Child())
	}
	if gb, lower, ok := blockShape(b); ok {
		return renderBlock(b, gb, lower)
	}
	return renderBlock(b, nil, nil)
}

// blockShape recognizes the upper-SELECT → GROUP BY → lower-SELECT pattern.
func blockShape(top *Box) (gb, lower *Box, ok bool) {
	var forEach []*Quantifier
	for _, q := range top.Quantifiers {
		if q.Kind == ForEach {
			forEach = append(forEach, q)
		}
	}
	if len(forEach) != 1 || forEach[0].Box.Kind != GroupByBox {
		return nil, nil, false
	}
	gb = forEach[0].Box
	child := gb.Child()
	if child.Kind != SelectBox {
		return nil, nil, false
	}
	return gb, child, true
}

// renderEnv resolves column references during printing. Quantifiers listed in
// fromAliases render as alias.col; quantifiers in inline have their referenced
// QCL expression substituted and re-rendered.
type renderEnv struct {
	fromAliases map[int]string
	inline      map[int]*Box
}

func renderBlock(top, gb, lower *Box) string {
	// The box holding the FROM children and WHERE predicates.
	fromBox := lower
	if fromBox == nil {
		fromBox = top
	}

	env := &renderEnv{fromAliases: map[int]string{}, inline: map[int]*Box{}}
	var fromItems []string
	used := map[string]int{}
	for _, q := range fromBox.Quantifiers {
		if q.Kind != ForEach {
			continue
		}
		alias := q.Alias
		if alias == "" {
			if q.Box.Kind == BaseTableBox {
				alias = q.Box.Table.Name
			} else {
				alias = fmt.Sprintf("t%d", q.ID)
			}
		}
		if n, ok := used[alias]; ok {
			used[alias] = n + 1
			alias = fmt.Sprintf("%s_%d", alias, n+1)
		} else {
			used[alias] = 0
		}
		env.fromAliases[q.ID] = alias
		if q.Box.Kind == BaseTableBox {
			if alias == q.Box.Table.Name {
				fromItems = append(fromItems, q.Box.Table.Name)
			} else {
				fromItems = append(fromItems, q.Box.Table.Name+" AS "+alias)
			}
		} else {
			fromItems = append(fromItems, "("+renderQuery(q.Box)+") AS "+alias)
		}
	}
	// Inline substitution for the intermediate boxes of a merged block.
	if gb != nil && top != nil {
		for _, q := range top.Quantifiers {
			if q.Kind == ForEach && q.Box == gb {
				env.inline[q.ID] = gb
			}
		}
	}
	if gb != nil && lower != nil {
		for _, q := range gb.Quantifiers {
			if q.Box == lower {
				env.inline[q.ID] = lower
			}
		}
	}

	var sb strings.Builder
	sb.WriteString("SELECT ")
	outBox := top
	if outBox == nil {
		outBox = gb
	}
	for i, c := range outBox.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		rendered := renderExpr(c.Expr, env)
		sb.WriteString(rendered)
		if c.Name != "" && !strings.EqualFold(lastIdent(rendered), c.Name) {
			sb.WriteString(" AS " + c.Name)
		}
	}
	sb.WriteString(" FROM " + strings.Join(fromItems, ", "))

	if len(fromBox.Preds) > 0 {
		sb.WriteString(" WHERE " + renderExpr(AndAll(fromBox.Preds), env))
	}
	if gb != nil && len(gb.GroupBy) > 0 {
		sb.WriteString(" GROUP BY " + renderGrouping(gb, env))
	}
	if top != nil && gb != nil && len(top.Preds) > 0 {
		sb.WriteString(" HAVING " + renderExpr(AndAll(top.Preds), env))
	}
	return sb.String()
}

func renderGrouping(gb *Box, env *renderEnv) string {
	renderPos := func(pos int) string {
		return renderExpr(gb.Cols[gb.GroupBy[pos]].Expr, env)
	}
	if gb.IsSimpleGroupBy() {
		parts := make([]string, len(gb.GroupBy))
		for i := range gb.GroupBy {
			parts[i] = renderPos(i)
		}
		return strings.Join(parts, ", ")
	}
	sets := make([]string, len(gb.GroupingSets))
	for i, gs := range gb.GroupingSets {
		cols := make([]string, len(gs))
		for j, pos := range gs {
			cols[j] = renderPos(pos)
		}
		sets[i] = "(" + strings.Join(cols, ", ") + ")"
	}
	return "GROUPING SETS(" + strings.Join(sets, ", ") + ")"
}

// renderExpr renders an expression, substituting inline boxes and resolving
// FROM aliases.
func renderExpr(e Expr, env *renderEnv) string {
	switch t := e.(type) {
	case *ColRef:
		if t.Q.Kind == Scalar {
			return "(" + renderQuery(t.Q.Box) + ")"
		}
		if box, ok := env.inline[t.Q.ID]; ok {
			return renderExpr(box.Cols[t.Col].Expr, env)
		}
		return env.fromAliases[t.Q.ID] + "." + t.Q.Box.Cols[t.Col].Name
	case *Const:
		return t.SQL()
	case *Call:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = renderExpr(a, env)
		}
		return t.Name + "(" + strings.Join(args, ", ") + ")"
	case *Bin:
		return "(" + renderExpr(t.L, env) + " " + t.Op + " " + renderExpr(t.R, env) + ")"
	case *Not:
		return "(NOT " + renderExpr(t.E, env) + ")"
	case *IsNull:
		if t.Neg {
			return "(" + renderExpr(t.E, env) + " IS NOT NULL)"
		}
		return "(" + renderExpr(t.E, env) + " IS NULL)"
	case *Like:
		n := ""
		if t.Neg {
			n = "NOT "
		}
		return "(" + renderExpr(t.E, env) + " " + n + "LIKE " + renderExpr(t.Pattern, env) + ")"
	case *Agg:
		if t.Star {
			return t.Op + "(*)"
		}
		d := ""
		if t.Distinct {
			d = "DISTINCT "
		}
		return t.Op + "(" + d + renderExpr(t.Arg, env) + ")"
	case *Case:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range t.Whens {
			sb.WriteString(" WHEN " + renderExpr(w.Cond, env) + " THEN " + renderExpr(w.Then, env))
		}
		if t.Else != nil {
			sb.WriteString(" ELSE " + renderExpr(t.Else, env))
		}
		sb.WriteString(" END")
		return sb.String()
	default:
		return fmt.Sprintf("/*?%T*/", e)
	}
}

// lastIdent extracts the trailing identifier of a rendered expression, used
// to suppress redundant "AS col" when the expression already ends in the
// column name (e.g. "loc.state AS state").
func lastIdent(s string) string {
	i := strings.LastIndexByte(s, '.')
	if i < 0 {
		return s
	}
	return s[i+1:]
}

// Dump renders the graph structure for debugging: every box with its kind,
// label, columns, predicates and children.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, b := range g.Boxes() {
		fmt.Fprintf(&sb, "box %d [%s] %s", b.ID, b.Kind, b.Label)
		if b.Kind == BaseTableBox {
			fmt.Fprintf(&sb, " table=%s", b.Table.Name)
		}
		sb.WriteString("\n")
		for _, q := range b.Quantifiers {
			kind := "F"
			if q.Kind == Scalar {
				kind = "S"
			}
			fmt.Fprintf(&sb, "  quant q%d(%s) -> box %d (%s)\n", q.ID, kind, q.Box.ID, q.Box.Label)
		}
		for i, c := range b.Cols {
			marker := ""
			if b.Kind == GroupByBox && b.IsGroupCol(i) {
				marker = " [group]"
			}
			if c.Expr != nil {
				fmt.Fprintf(&sb, "  col %d %s = %s%s\n", i, c.Name, c.Expr.String(), marker)
			} else {
				fmt.Fprintf(&sb, "  col %d %s%s\n", i, c.Name, marker)
			}
		}
		for _, p := range b.Preds {
			fmt.Fprintf(&sb, "  pred %s\n", p.String())
		}
		if b.Kind == GroupByBox && !b.IsSimpleGroupBy() {
			fmt.Fprintf(&sb, "  grouping sets %v\n", b.GroupingSets)
		}
	}
	return sb.String()
}
