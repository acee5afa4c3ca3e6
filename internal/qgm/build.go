package qgm

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/parser"
	"repro/internal/sqltypes"
)

// ErrUnknownTable marks a build failure caused by a FROM or DML target table
// that is not registered in the catalog. Builders wrap it so callers (the
// astdb facade, and through it the wire server) can classify the failure with
// errors.Is without matching message text.
var ErrUnknownTable = errors.New("qgm: unknown table")

// Build compiles a parsed SELECT statement into a QGM graph against the given
// catalog. Per the paper (§2), each SQL block becomes:
//
//   - a lower SELECT box joining the FROM children, applying WHERE conjuncts
//     and computing the grouping expressions and aggregate arguments;
//   - a GROUP BY box (when the block aggregates) grouping by simple QNCs over
//     the lower box, with supergroup clauses canonicalized to grouping sets;
//   - an upper SELECT box applying HAVING and computing the select list.
//
// Blocks without aggregation compile to a single SELECT box. Scalar
// subqueries become extra children (Scalar quantifiers) of the SELECT box in
// which they appear; derived tables become ForEach children.
func Build(stmt *parser.SelectStmt, cat *catalog.Catalog) (*Graph, error) {
	return buildGraph(stmt, cat, false)
}

// BuildParams is Build for a statement whose plan is to be reused with other
// literals: every Const read from a literal token carries that token's Param,
// and the graph lists them (Graph.Params). stmt must be the whole statement
// parser.Parse returned, so that its literal numbers index the vector
// parser.Template yields for the same text. A summary-table definition is
// never built this way: its graph is shared by every statement matched against
// it, and a Param is written by the goroutine planning its statement.
func BuildParams(stmt *parser.SelectStmt, cat *catalog.Catalog) (*Graph, error) {
	return buildGraph(stmt, cat, true)
}

func buildGraph(stmt *parser.SelectStmt, cat *catalog.Catalog, params bool) (*Graph, error) {
	g := NewGraph(cat)
	b := &builder{g: g, params: params}
	root, err := b.buildBlock(stmt, "Q")
	if err != nil {
		return nil, err
	}
	g.Root = root
	// Reject definitely ill-typed queries at the door (`where (date)`,
	// `0 like ''`): the executor and the qgmcheck oracle are entitled to
	// well-typed graphs. KindNull means unknown and always passes — only
	// definite disagreements reject.
	for _, box := range g.Boxes() {
		for i, p := range box.Preds {
			if iss := TypeIssues(p); len(iss) > 0 {
				return nil, fmt.Errorf("qgm: predicate %d of %s: %s", i, box.Label, iss[0])
			}
			if k, _ := inferType(p); !IsBoolKind(k) {
				return nil, fmt.Errorf("qgm: predicate %d of %s has non-boolean type %s", i, box.Label, k)
			}
		}
		for _, c := range box.Cols {
			if c.Expr == nil {
				continue
			}
			if iss := TypeIssues(c.Expr); len(iss) > 0 {
				return nil, fmt.Errorf("qgm: output %q of %s: %s", c.Name, box.Label, iss[0])
			}
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and built-in workloads.
func MustBuild(stmt *parser.SelectStmt, cat *catalog.Catalog) *Graph {
	g, err := Build(stmt, cat)
	if err != nil {
		panic(err)
	}
	return g
}

// BuildSQL parses and compiles in one step.
func BuildSQL(sql string, cat *catalog.Catalog) (*Graph, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Build(stmt, cat)
}

// MustBuildSQL is BuildSQL that panics on error.
func MustBuildSQL(sql string, cat *catalog.Catalog) *Graph {
	g, err := BuildSQL(sql, cat)
	if err != nil {
		panic(err)
	}
	return g
}

type builder struct {
	g      *Graph
	params bool // BuildParams: literals become Consts with a Param
}

// constant builds the Const of one literal. Under BuildParams a literal the
// parser took as it stood gets its slot's Param; one the parser computed from
// the token's value (l.Pinned) pins the slot here and carries none, because
// its value is not what another literal vector holds at that slot.
func (b *builder) constant(l *parser.Lit) *Const {
	c := NewConst(l.Val)
	if !b.params || l.Param == 0 {
		return c
	}
	for len(b.g.Params) < l.Param {
		b.g.Params = append(b.g.Params, nil)
	}
	p := b.g.Params[l.Param-1]
	if p == nil {
		p = &Param{Slot: l.Param - 1}
		b.g.Params[l.Param-1] = p
	}
	if l.Pinned {
		p.pinned = true
		return c
	}
	c.Param = p
	return c
}

// scopeEntry binds a FROM alias to the quantifier carrying its rows.
type scopeEntry struct {
	alias string
	quant *Quantifier
}

type scope struct {
	entries []scopeEntry
}

func (s *scope) add(alias string, q *Quantifier) error {
	alias = strings.ToLower(alias)
	for _, e := range s.entries {
		if e.alias == alias {
			return fmt.Errorf("qgm: duplicate table alias %q", alias)
		}
	}
	s.entries = append(s.entries, scopeEntry{alias: alias, quant: q})
	return nil
}

// resolveColumn finds the QNC for a (possibly qualified) column name.
func (s *scope) resolveColumn(qualifier, name string) (*ColRef, error) {
	qualifier = strings.ToLower(qualifier)
	name = strings.ToLower(name)
	var found *ColRef
	for _, e := range s.entries {
		if qualifier != "" && e.alias != qualifier {
			continue
		}
		idx := e.quant.Box.ColIndex(name)
		if idx < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("qgm: ambiguous column reference %q", name)
		}
		found = &ColRef{Q: e.quant, Col: idx}
	}
	if found == nil {
		if qualifier != "" {
			return nil, fmt.Errorf("qgm: column %s.%s not found", qualifier, name)
		}
		return nil, fmt.Errorf("qgm: column %q not found", name)
	}
	return found, nil
}

var aggNames = map[string]bool{"count": true, "sum": true, "min": true, "max": true, "avg": true}

var scalarBuiltins = map[string]int{"year": 1, "month": 1, "day": 1}

// containsAggregate reports whether a parse expression contains an aggregate
// function call (at any depth, not descending into subqueries).
func containsAggregate(e parser.Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *parser.ColRef, *parser.Lit, *parser.SubqueryExpr:
		return false
	case *parser.BinExpr:
		return containsAggregate(t.L) || containsAggregate(t.R)
	case *parser.UnaryExpr:
		return containsAggregate(t.E)
	case *parser.FuncCall:
		if aggNames[t.Name] {
			return true
		}
		for _, a := range t.Args {
			if containsAggregate(a) {
				return true
			}
		}
		return false
	case *parser.IsNullExpr:
		return containsAggregate(t.E)
	case *parser.LikeExpr:
		return containsAggregate(t.E) || containsAggregate(t.Pattern)
	case *parser.BetweenExpr:
		return containsAggregate(t.E) || containsAggregate(t.Lo) || containsAggregate(t.Hi)
	case *parser.InExpr:
		if containsAggregate(t.E) {
			return true
		}
		for _, x := range t.List {
			if containsAggregate(x) {
				return true
			}
		}
		return false
	case *parser.CaseExpr:
		for _, w := range t.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Then) {
				return true
			}
		}
		return containsAggregate(t.Else)
	default:
		return false
	}
}

// buildBlock compiles one SQL block and returns its top box.
func (b *builder) buildBlock(stmt *parser.SelectStmt, tag string) (*Box, error) {
	sel := b.g.NewBox(SelectBox, "Sel-"+tag)
	sc := &scope{}

	for i, ref := range stmt.From {
		var child *Box
		if ref.Subquery != nil {
			sub, err := b.buildBlock(ref.Subquery, fmt.Sprintf("%s.f%d", tag, i))
			if err != nil {
				return nil, err
			}
			child = sub
		} else {
			tbl, ok := b.g.Cat.Table(ref.Table)
			if !ok {
				return nil, fmt.Errorf("%w: %q not in catalog", ErrUnknownTable, ref.Table)
			}
			child = b.g.BaseTableBox(tbl)
		}
		q := b.g.NewQuantifier(ForEach, child, ref.Alias)
		sel.Quantifiers = append(sel.Quantifiers, q)
		if err := sc.add(ref.Alias, q); err != nil {
			return nil, err
		}
	}

	r := &resolver{b: b, scope: sc, box: sel, tag: tag}

	if stmt.Where != nil {
		w, err := r.resolve(stmt.Where)
		if err != nil {
			return nil, fmt.Errorf("in WHERE: %w", err)
		}
		sel.Preds = SplitConjuncts(w)
	}

	hasAgg := len(stmt.GroupBy) > 0 || containsAggregate(stmt.Having)
	if !hasAgg {
		for _, it := range stmt.Items {
			if !it.Star && containsAggregate(it.Expr) {
				hasAgg = true
				break
			}
		}
	}

	if !hasAgg {
		if stmt.Having != nil {
			return nil, fmt.Errorf("qgm: HAVING without aggregation is not supported")
		}
		if err := b.buildPlainOutput(stmt, sel, sc, r); err != nil {
			return nil, err
		}
		if stmt.Distinct {
			return b.wrapDistinct(sel, tag), nil
		}
		return sel, nil
	}

	top, err := b.buildAggBlock(stmt, sel, sc, r, tag)
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		return b.wrapDistinct(top, tag), nil
	}
	return top, nil
}

// wrapDistinct canonicalizes SELECT DISTINCT into a GROUP BY over all output
// columns plus a projection — the representation the paper's footnote 2
// alludes to ("a SELECT DISTINCT box may match with a GROUP-BY box, as they
// both eliminate duplicates"). With this canonical form, DISTINCT queries
// match aggregation ASTs (and vice versa) through the ordinary GROUP BY
// patterns, without violating the same-type condition.
func (b *builder) wrapDistinct(inner *Box, tag string) *Box {
	gb := b.g.NewBox(GroupByBox, "GBDist-"+tag)
	qIn := b.g.NewQuantifier(ForEach, inner, "")
	gb.Quantifiers = []*Quantifier{qIn}
	for i, c := range inner.Cols {
		gb.Cols = append(gb.Cols, QCL{Name: c.Name, Expr: &ColRef{Q: qIn, Col: i}})
		gb.GroupBy = append(gb.GroupBy, i)
	}
	all := make([]int, len(gb.GroupBy))
	for i := range all {
		all[i] = i
	}
	gb.GroupingSets = [][]int{all}

	top := b.g.NewBox(SelectBox, "SelDist-"+tag)
	qGb := b.g.NewQuantifier(ForEach, gb, "")
	top.Quantifiers = []*Quantifier{qGb}
	for i, c := range gb.Cols {
		top.Cols = append(top.Cols, QCL{Name: c.Name, Expr: &ColRef{Q: qGb, Col: i}})
	}
	return top
}

// buildPlainOutput fills the output columns of a non-aggregating block.
func (b *builder) buildPlainOutput(stmt *parser.SelectStmt, sel *Box, sc *scope, r *resolver) error {
	for _, it := range stmt.Items {
		if it.Star {
			for _, e := range sc.entries {
				for i := 0; i < len(e.quant.Box.Cols); i++ {
					sel.Cols = append(sel.Cols, QCL{
						Name: e.quant.Box.Cols[i].Name,
						Expr: &ColRef{Q: e.quant, Col: i},
					})
				}
			}
			continue
		}
		e, err := r.resolve(it.Expr)
		if err != nil {
			return fmt.Errorf("in select list: %w", err)
		}
		sel.Cols = append(sel.Cols, QCL{Name: outName(it, e, len(sel.Cols)), Expr: e})
	}
	uniquifyNames(sel)
	return nil
}

// buildAggBlock compiles an aggregating block: lower SELECT (already holds
// FROM/WHERE), a GROUP BY box, and an upper SELECT for HAVING + select list.
func (b *builder) buildAggBlock(stmt *parser.SelectStmt, sel *Box, sc *scope, r *resolver, tag string) (*Box, error) {
	// Substitute select-list aliases inside GROUP BY elements (SQL allows
	// GROUP BY to reference output aliases).
	aliasMap := map[string]parser.Expr{}
	for _, it := range stmt.Items {
		if !it.Star && it.Alias != "" && !containsAggregate(it.Expr) {
			aliasMap[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	substAlias := func(e parser.Expr) parser.Expr {
		if c, ok := e.(*parser.ColRef); ok && c.Qualifier == "" {
			if _, err := sc.resolveColumn("", c.Name); err != nil {
				if repl, ok := aliasMap[strings.ToLower(c.Name)]; ok {
					return repl
				}
			}
		}
		return e
	}

	// Collect and deduplicate grouping expressions across all elements,
	// then canonicalize the supergroup structure into grouping sets
	// (paper §5: every supergroup expression has an equivalent single
	// GROUPING SETS form).
	var gexprs []Expr   // resolved grouping expressions, deduplicated
	var gnames []string // output names for grouping columns
	indexOf := func(pe parser.Expr) (int, error) {
		pe = substAlias(pe)
		e, err := r.resolve(pe)
		if err != nil {
			return 0, fmt.Errorf("in GROUP BY: %w", err)
		}
		if HasAgg(e) {
			return 0, fmt.Errorf("qgm: aggregate function in GROUP BY")
		}
		for i, g := range gexprs {
			if ExprEqual(g, e, nil) {
				return i, nil
			}
		}
		gexprs = append(gexprs, e)
		gnames = append(gnames, groupColName(stmt, pe, e, r, len(gexprs)-1))
		return len(gexprs) - 1, nil
	}

	// Per-element list of index sets.
	var perElem [][][]int
	for _, elem := range stmt.GroupBy {
		var sets [][]int
		switch elem.Kind {
		case parser.GroupExpr:
			i, err := indexOf(elem.Exprs[0])
			if err != nil {
				return nil, err
			}
			sets = [][]int{{i}}
		case parser.GroupRollup:
			idxs := make([]int, len(elem.Exprs))
			for i, pe := range elem.Exprs {
				var err error
				idxs[i], err = indexOf(pe)
				if err != nil {
					return nil, err
				}
			}
			for n := len(idxs); n >= 0; n-- {
				sets = append(sets, append([]int(nil), idxs[:n]...))
			}
		case parser.GroupCube:
			idxs := make([]int, len(elem.Exprs))
			for i, pe := range elem.Exprs {
				var err error
				idxs[i], err = indexOf(pe)
				if err != nil {
					return nil, err
				}
			}
			for mask := 0; mask < 1<<len(idxs); mask++ {
				var s []int
				for i := range idxs {
					if mask&(1<<i) != 0 {
						s = append(s, idxs[i])
					}
				}
				sets = append(sets, s)
			}
		case parser.GroupSets:
			for _, set := range elem.Sets {
				var s []int
				for _, pe := range set {
					i, err := indexOf(pe)
					if err != nil {
						return nil, err
					}
					s = append(s, i)
				}
				sets = append(sets, s)
			}
		}
		perElem = append(perElem, sets)
	}

	// Cross-product combine the per-element set lists.
	total := [][]int{{}}
	for _, sets := range perElem {
		var next [][]int
		for _, base := range total {
			for _, s := range sets {
				merged := append(append([]int(nil), base...), s...)
				next = append(next, dedupInts(merged))
			}
		}
		total = next
	}
	groupingSets := SortGroupingSets(total)

	// Lower SELECT box computes each grouping expression as a QCL.
	for i, e := range gexprs {
		sel.Cols = append(sel.Cols, QCL{Name: gnames[i], Expr: e})
	}

	// GROUP BY box.
	gb := b.g.NewBox(GroupByBox, "GB-"+tag)
	qSel := b.g.NewQuantifier(ForEach, sel, "")
	gb.Quantifiers = []*Quantifier{qSel}
	for i := range gexprs {
		gb.Cols = append(gb.Cols, QCL{Name: gnames[i], Expr: &ColRef{Q: qSel, Col: i}})
		gb.GroupBy = append(gb.GroupBy, i)
	}
	gb.GroupingSets = groupingSets

	// Upper SELECT box.
	top := b.g.NewBox(SelectBox, "TopSel-"+tag)
	qGb := b.g.NewQuantifier(ForEach, gb, "")
	top.Quantifiers = []*Quantifier{qGb}

	ar := &aggResolver{
		b: b, lower: r, sel: sel, gb: gb, qSel: qSel, qGb: qGb,
		top: top, gexprs: gexprs, tag: tag,
	}

	if stmt.Having != nil {
		h, err := ar.resolve(stmt.Having)
		if err != nil {
			return nil, fmt.Errorf("in HAVING: %w", err)
		}
		top.Preds = SplitConjuncts(h)
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("qgm: SELECT * is not allowed with GROUP BY")
		}
		e, err := ar.resolve(it.Expr)
		if err != nil {
			return nil, fmt.Errorf("in select list: %w", err)
		}
		top.Cols = append(top.Cols, QCL{Name: outName(it, e, len(top.Cols)), Expr: e})
	}
	top.Distinct = stmt.Distinct
	uniquifyNames(top)
	return top, nil
}

func dedupInts(s []int) []int {
	seen := map[int]bool{}
	out := s[:0]
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// groupColName picks a stable output name for a grouping column: a matching
// select-item alias when one computes the same expression, the column name
// for plain references, else a synthesized name.
func groupColName(stmt *parser.SelectStmt, pe parser.Expr, resolved Expr, r *resolver, ord int) string {
	for _, it := range stmt.Items {
		if it.Star || it.Alias == "" || containsAggregate(it.Expr) {
			continue
		}
		if re, err := r.resolveReadOnly(it.Expr); err == nil && ExprEqual(re, resolved, nil) {
			return strings.ToLower(it.Alias)
		}
	}
	if c, ok := pe.(*parser.ColRef); ok {
		return strings.ToLower(c.Name)
	}
	return fmt.Sprintf("g%d", ord)
}

// outName names an output column: explicit alias, else column name, else
// positional.
func outName(it parser.SelectItem, e Expr, ord int) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	if c, ok := it.Expr.(*parser.ColRef); ok {
		return strings.ToLower(c.Name)
	}
	_ = e
	return fmt.Sprintf("c%d", ord)
}

// uniquifyNames renames duplicate output columns (a_1, a_2, ...) so the box
// output can always be materialized as a table.
func uniquifyNames(b *Box) {
	seen := map[string]int{}
	for i := range b.Cols {
		n := b.Cols[i].Name
		if c, ok := seen[n]; ok {
			seen[n] = c + 1
			b.Cols[i].Name = fmt.Sprintf("%s_%d", n, c+1)
		} else {
			seen[n] = 0
		}
	}
}

// resolver resolves parse expressions in the context of a (lower) SELECT box.
// Scalar subqueries encountered are attached to the box as Scalar children.
type resolver struct {
	b     *builder
	scope *scope
	box   *Box
	tag   string
	subN  int

	readOnly bool // when set, fail on scalar subqueries instead of mutating
}

func (r *resolver) resolveReadOnly(pe parser.Expr) (Expr, error) {
	ro := *r
	ro.readOnly = true
	return ro.resolve(pe)
}

func (r *resolver) resolve(pe parser.Expr) (Expr, error) {
	switch t := pe.(type) {
	case *parser.ColRef:
		return r.scope.resolveColumn(t.Qualifier, t.Name)
	case *parser.Lit:
		return r.b.constant(t), nil
	case *parser.BinExpr:
		l, err := r.resolve(t.L)
		if err != nil {
			return nil, err
		}
		rr, err := r.resolve(t.R)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: t.Op, L: l, R: rr}, nil
	case *parser.UnaryExpr:
		e, err := r.resolve(t.E)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &Not{E: e}, nil
		}
		return &Bin{Op: "-", L: NewConst(sqltypes.NewInt(0)), R: e}, nil
	case *parser.FuncCall:
		if aggNames[t.Name] {
			return nil, fmt.Errorf("qgm: aggregate %s() not allowed here", t.Name)
		}
		n, ok := scalarBuiltins[t.Name]
		if !ok {
			return nil, fmt.Errorf("qgm: unknown function %q", t.Name)
		}
		if len(t.Args) != n {
			return nil, fmt.Errorf("qgm: %s() takes %d argument(s)", t.Name, n)
		}
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			e, err := r.resolve(a)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &Call{Name: t.Name, Args: args}, nil
	case *parser.IsNullExpr:
		e, err := r.resolve(t.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: e, Neg: t.Not}, nil
	case *parser.LikeExpr:
		e, err := r.resolve(t.E)
		if err != nil {
			return nil, err
		}
		pat, err := r.resolve(t.Pattern)
		if err != nil {
			return nil, err
		}
		return &Like{E: e, Pattern: pat, Neg: t.Not}, nil
	case *parser.BetweenExpr:
		e, err := r.resolve(t.E)
		if err != nil {
			return nil, err
		}
		lo, err := r.resolve(t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := r.resolve(t.Hi)
		if err != nil {
			return nil, err
		}
		rng := &Bin{Op: "AND",
			L: &Bin{Op: ">=", L: e, R: lo},
			R: &Bin{Op: "<=", L: e, R: hi}}
		if t.Not {
			return &Not{E: rng}, nil
		}
		return rng, nil
	case *parser.InExpr:
		e, err := r.resolve(t.E)
		if err != nil {
			return nil, err
		}
		var ors []Expr
		for _, item := range t.List {
			ie, err := r.resolve(item)
			if err != nil {
				return nil, err
			}
			ors = append(ors, &Bin{Op: "=", L: e, R: ie})
		}
		out := OrAll(ors)
		if t.Not {
			return &Not{E: out}, nil
		}
		return out, nil
	case *parser.SubqueryExpr:
		if r.readOnly {
			return nil, fmt.Errorf("qgm: scalar subquery not allowed in this context")
		}
		sub, err := r.b.buildBlock(t.Query, fmt.Sprintf("%s.s%d", r.tag, r.subN))
		r.subN++
		if err != nil {
			return nil, err
		}
		if len(sub.Cols) != 1 {
			return nil, fmt.Errorf("qgm: scalar subquery must produce exactly one column")
		}
		q := r.b.g.NewQuantifier(Scalar, sub, "")
		r.box.Quantifiers = append(r.box.Quantifiers, q)
		return &ColRef{Q: q, Col: 0}, nil
	case *parser.CaseExpr:
		c := &Case{}
		for _, w := range t.Whens {
			cond, err := r.resolve(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := r.resolve(w.Then)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if t.Else != nil {
			e, err := r.resolve(t.Else)
			if err != nil {
				return nil, err
			}
			c.Else = e
		}
		return c, nil
	default:
		return nil, fmt.Errorf("qgm: unsupported expression %T", pe)
	}
}

// aggResolver resolves select-list and HAVING expressions of an aggregating
// block in the context of the upper SELECT box: aggregate calls map to (or
// create) aggregate output columns of the GROUP BY box; subtrees equal to a
// grouping expression map to the corresponding grouping column; scalar
// subqueries attach to the upper box.
type aggResolver struct {
	b      *builder
	lower  *resolver
	sel    *Box // lower select box
	gb     *Box
	qSel   *Quantifier
	qGb    *Quantifier
	top    *Box
	gexprs []Expr
	tag    string
	subN   int
}

func (a *aggResolver) resolve(pe parser.Expr) (Expr, error) {
	// Scalar subqueries attach to the upper box.
	if sq, ok := pe.(*parser.SubqueryExpr); ok {
		sub, err := a.b.buildBlock(sq.Query, fmt.Sprintf("%s.h%d", a.tag, a.subN))
		a.subN++
		if err != nil {
			return nil, err
		}
		if len(sub.Cols) != 1 {
			return nil, fmt.Errorf("qgm: scalar subquery must produce exactly one column")
		}
		q := a.b.g.NewQuantifier(Scalar, sub, "")
		a.top.Quantifiers = append(a.top.Quantifiers, q)
		return &ColRef{Q: q, Col: 0}, nil
	}

	// Aggregate function: resolve the argument in the lower scope and map to
	// a GROUP BY output column.
	if fc, ok := pe.(*parser.FuncCall); ok && aggNames[fc.Name] {
		return a.resolveAggCall(fc)
	}

	// Whole subtree equal to a grouping expression?
	if e, err := a.lower.resolveReadOnly(pe); err == nil {
		for i, g := range a.gexprs {
			if ExprEqual(g, e, nil) {
				return &ColRef{Q: a.qGb, Col: i}, nil
			}
		}
		// Constants are fine anywhere.
		if _, ok := e.(*Const); ok {
			return e, nil
		}
		if _, ok := pe.(*parser.ColRef); ok {
			return nil, fmt.Errorf("qgm: column %s is neither grouped nor aggregated", pe.SQL())
		}
	} else if _, ok := pe.(*parser.ColRef); ok {
		return nil, err
	}

	// Recurse structurally.
	switch t := pe.(type) {
	case *parser.Lit:
		return a.b.constant(t), nil
	case *parser.BinExpr:
		l, err := a.resolve(t.L)
		if err != nil {
			return nil, err
		}
		r, err := a.resolve(t.R)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: t.Op, L: l, R: r}, nil
	case *parser.UnaryExpr:
		e, err := a.resolve(t.E)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &Not{E: e}, nil
		}
		return &Bin{Op: "-", L: NewConst(sqltypes.NewInt(0)), R: e}, nil
	case *parser.FuncCall:
		n, ok := scalarBuiltins[t.Name]
		if !ok {
			return nil, fmt.Errorf("qgm: unknown function %q", t.Name)
		}
		if len(t.Args) != n {
			return nil, fmt.Errorf("qgm: %s() takes %d argument(s)", t.Name, n)
		}
		args := make([]Expr, len(t.Args))
		for i, arg := range t.Args {
			e, err := a.resolve(arg)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &Call{Name: t.Name, Args: args}, nil
	case *parser.IsNullExpr:
		e, err := a.resolve(t.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: e, Neg: t.Not}, nil
	case *parser.LikeExpr:
		e, err := a.resolve(t.E)
		if err != nil {
			return nil, err
		}
		pat, err := a.resolve(t.Pattern)
		if err != nil {
			return nil, err
		}
		return &Like{E: e, Pattern: pat, Neg: t.Not}, nil
	case *parser.BetweenExpr:
		e, err := a.resolve(t.E)
		if err != nil {
			return nil, err
		}
		lo, err := a.resolve(t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := a.resolve(t.Hi)
		if err != nil {
			return nil, err
		}
		rng := &Bin{Op: "AND",
			L: &Bin{Op: ">=", L: e, R: lo},
			R: &Bin{Op: "<=", L: e, R: hi}}
		if t.Not {
			return &Not{E: rng}, nil
		}
		return rng, nil
	case *parser.InExpr:
		e, err := a.resolve(t.E)
		if err != nil {
			return nil, err
		}
		var ors []Expr
		for _, item := range t.List {
			ie, err := a.resolve(item)
			if err != nil {
				return nil, err
			}
			ors = append(ors, &Bin{Op: "=", L: e, R: ie})
		}
		out := OrAll(ors)
		if t.Not {
			return &Not{E: out}, nil
		}
		return out, nil
	case *parser.CaseExpr:
		c := &Case{}
		for _, w := range t.Whens {
			cond, err := a.resolve(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := a.resolve(w.Then)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if t.Else != nil {
			e, err := a.resolve(t.Else)
			if err != nil {
				return nil, err
			}
			c.Else = e
		}
		return c, nil
	default:
		return nil, fmt.Errorf("qgm: expression %s is neither grouped nor aggregated", pe.SQL())
	}
}

// resolveAggCall maps an aggregate call to a GROUP BY output column, adding
// lower-box argument QCLs and GROUP BY aggregate QCLs on demand. AVG(x) is
// canonicalized to SUM(x)/COUNT(x), which makes it derivable through the
// paper's SUM and COUNT rules.
func (a *aggResolver) resolveAggCall(fc *parser.FuncCall) (Expr, error) {
	if fc.Name == "avg" {
		if fc.Star || len(fc.Args) != 1 {
			return nil, fmt.Errorf("qgm: avg() takes one argument")
		}
		if fc.Distinct {
			return nil, fmt.Errorf("qgm: avg(DISTINCT) is not supported")
		}
		sum, err := a.addAgg("sum", fc.Args[0], false, false)
		if err != nil {
			return nil, err
		}
		cnt, err := a.addAgg("count", fc.Args[0], false, false)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: "/", L: sum, R: cnt}, nil
	}
	if fc.Star {
		if fc.Name != "count" {
			return nil, fmt.Errorf("qgm: %s(*) is not valid", fc.Name)
		}
		return a.addAgg("count", nil, true, false)
	}
	if len(fc.Args) != 1 {
		return nil, fmt.Errorf("qgm: %s() takes one argument", fc.Name)
	}
	if containsAggregate(fc.Args[0]) {
		return nil, fmt.Errorf("qgm: nested aggregate in %s()", fc.Name)
	}
	return a.addAgg(fc.Name, fc.Args[0], false, fc.Distinct)
}

func (a *aggResolver) addAgg(op string, parg parser.Expr, star, distinct bool) (Expr, error) {
	var agg *Agg
	if star {
		agg = &Agg{Op: op, Star: true}
	} else {
		argE, err := a.lower.resolve(parg)
		if err != nil {
			return nil, err
		}
		if HasAgg(argE) {
			return nil, fmt.Errorf("qgm: nested aggregates are not allowed")
		}
		// Find or add the lower-box QCL computing the argument.
		argIdx := -1
		for i, c := range a.sel.Cols {
			if ExprEqual(c.Expr, argE, nil) {
				argIdx = i
				break
			}
		}
		if argIdx < 0 {
			name := fmt.Sprintf("a%d", len(a.sel.Cols))
			if cr, ok := argE.(*ColRef); ok && cr.Q.Box != nil {
				name = cr.Q.Box.Cols[cr.Col].Name
				// Avoid clashing with an existing column of the lower box.
				if a.sel.ColIndex(name) >= 0 {
					name = fmt.Sprintf("%s_a%d", name, len(a.sel.Cols))
				}
			}
			a.sel.Cols = append(a.sel.Cols, QCL{Name: name, Expr: argE})
			argIdx = len(a.sel.Cols) - 1
		}
		agg = &Agg{Op: op, Arg: &ColRef{Q: a.qSel, Col: argIdx}, Distinct: distinct}
	}
	// Find or add the GROUP BY aggregate column.
	for i := len(a.gb.GroupBy); i < len(a.gb.Cols); i++ {
		if ExprEqual(a.gb.Cols[i].Expr, agg, nil) {
			return &ColRef{Q: a.qGb, Col: i}, nil
		}
	}
	name := fmt.Sprintf("agg%d", len(a.gb.Cols)-len(a.gb.GroupBy))
	a.gb.Cols = append(a.gb.Cols, QCL{Name: name, Expr: agg})
	return &ColRef{Q: a.qGb, Col: len(a.gb.Cols) - 1}, nil
}
