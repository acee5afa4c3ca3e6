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

// BuildSQL parses and compiles in one step.
func BuildSQL(sql string, cat *catalog.Catalog) (*Graph, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Build(stmt, cat)
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
	default: // nil, a column, a literal or a subquery
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

func (r *resolver) resolve(pe parser.Expr) (Expr, error) { return r.b.lower(pe, r.node) }

// node is a plain block's step of the lowering walk: columns resolve in the
// block's scope, a scalar subquery becomes a Scalar child of the box, and an
// aggregate is refused.
func (r *resolver) node(pe parser.Expr) (Expr, bool, error) {
	switch t := pe.(type) {
	case *parser.ColRef:
		c, err := r.scope.resolveColumn(t.Qualifier, t.Name)
		if err != nil {
			return nil, true, err
		}
		return c, true, nil
	case *parser.FuncCall:
		if aggNames[t.Name] {
			return nil, true, fmt.Errorf("qgm: aggregate %s() not allowed here", t.Name)
		}
	case *parser.SubqueryExpr:
		if r.readOnly {
			return nil, true, fmt.Errorf("qgm: scalar subquery not allowed in this context")
		}
		e, err := r.b.scalarSubquery(t, fmt.Sprintf("%s.s%d", r.tag, r.subN), r.box)
		r.subN++
		return e, true, err
	}
	return nil, false, nil
}

// lower is the one lowering of a parse expression to QGM. node sees every
// parse node first and either lowers it itself (done) or leaves it to the
// structural descent below, which lowers the node's children through lower
// again and builds the QGM node — so each piece of SQL sugar (unary minus,
// BETWEEN, IN) is spelled out once for both kinds of block.
func (b *builder) lower(pe parser.Expr, node func(parser.Expr) (e Expr, done bool, err error)) (Expr, error) {
	if e, done, err := node(pe); done || err != nil {
		return e, err
	}
	// kids lowers the given children in order.
	kids := func(pes ...parser.Expr) ([]Expr, error) {
		out := make([]Expr, len(pes))
		for i, x := range pes {
			e, err := b.lower(x, node)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	switch t := pe.(type) {
	case *parser.Lit:
		return b.constant(t), nil
	case *parser.BinExpr:
		k, err := kids(t.L, t.R)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: t.Op, L: k[0], R: k[1]}, nil
	case *parser.UnaryExpr:
		k, err := kids(t.E)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &Not{E: k[0]}, nil
		}
		return &Bin{Op: "-", L: NewConst(sqltypes.NewInt(0)), R: k[0]}, nil
	case *parser.FuncCall:
		n, ok := scalarBuiltins[t.Name]
		if !ok {
			return nil, fmt.Errorf("qgm: unknown function %q", t.Name)
		}
		if len(t.Args) != n {
			return nil, fmt.Errorf("qgm: %s() takes %d argument(s)", t.Name, n)
		}
		args, err := kids(t.Args...)
		if err != nil {
			return nil, err
		}
		return &Call{Name: t.Name, Args: args}, nil
	case *parser.IsNullExpr:
		k, err := kids(t.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: k[0], Neg: t.Not}, nil
	case *parser.LikeExpr:
		k, err := kids(t.E, t.Pattern)
		if err != nil {
			return nil, err
		}
		return &Like{E: k[0], Pattern: k[1], Neg: t.Not}, nil
	case *parser.BetweenExpr:
		k, err := kids(t.E, t.Lo, t.Hi)
		if err != nil {
			return nil, err
		}
		rng := &Bin{Op: "AND",
			L: &Bin{Op: ">=", L: k[0], R: k[1]},
			R: &Bin{Op: "<=", L: k[0], R: k[2]}}
		if t.Not {
			return &Not{E: rng}, nil
		}
		return rng, nil
	case *parser.InExpr:
		k, err := kids(append([]parser.Expr{t.E}, t.List...)...)
		if err != nil {
			return nil, err
		}
		ors := make([]Expr, len(t.List))
		for i, item := range k[1:] {
			ors[i] = &Bin{Op: "=", L: k[0], R: item}
		}
		out := OrAll(ors)
		if t.Not {
			return &Not{E: out}, nil
		}
		return out, nil
	case *parser.CaseExpr:
		var pes []parser.Expr
		for _, w := range t.Whens {
			pes = append(pes, w.Cond, w.Then)
		}
		if t.Else != nil {
			pes = append(pes, t.Else)
		}
		k, err := kids(pes...)
		if err != nil {
			return nil, err
		}
		c := &Case{}
		for i := range t.Whens {
			c.Whens = append(c.Whens, CaseWhen{Cond: k[2*i], Then: k[2*i+1]})
		}
		if t.Else != nil {
			c.Else = k[len(k)-1]
		}
		return c, nil
	default:
		return nil, fmt.Errorf("qgm: unsupported expression %T", pe)
	}
}

// scalarSubquery builds a scalar subquery as a block of its own and attaches
// it to box as a Scalar child, returning the reference to its one column.
func (b *builder) scalarSubquery(sq *parser.SubqueryExpr, tag string, box *Box) (Expr, error) {
	sub, err := b.buildBlock(sq.Query, tag)
	if err != nil {
		return nil, err
	}
	if len(sub.Cols) != 1 {
		return nil, fmt.Errorf("qgm: scalar subquery must produce exactly one column")
	}
	q := b.g.NewQuantifier(Scalar, sub, "")
	box.Quantifiers = append(box.Quantifiers, q)
	return &ColRef{Q: q, Col: 0}, nil
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

func (a *aggResolver) resolve(pe parser.Expr) (Expr, error) { return a.b.lower(pe, a.node) }

// node is an aggregating block's step of the lowering walk: a scalar subquery
// attaches to the upper box, an aggregate call maps to a GROUP BY column, a
// subtree equal to a grouping expression to its grouping column, a constant
// stays, and a bare column is refused. Anything else descends.
func (a *aggResolver) node(pe parser.Expr) (Expr, bool, error) {
	if sq, ok := pe.(*parser.SubqueryExpr); ok {
		e, err := a.b.scalarSubquery(sq, fmt.Sprintf("%s.h%d", a.tag, a.subN), a.top)
		a.subN++
		return e, true, err
	}
	if fc, ok := pe.(*parser.FuncCall); ok && aggNames[fc.Name] {
		e, err := a.resolveAggCall(fc)
		return e, true, err
	}
	_, isCol := pe.(*parser.ColRef)
	e, err := a.lower.resolveReadOnly(pe)
	if err != nil {
		// The subtree reads an aggregate or a subquery (or is wrong, and
		// its children will say so).
		if isCol {
			return nil, true, err
		}
		return nil, false, nil
	}
	for i, g := range a.gexprs {
		if ExprEqual(g, e, nil) {
			return &ColRef{Q: a.qGb, Col: i}, true, nil
		}
	}
	if _, ok := e.(*Const); ok {
		return e, true, nil
	}
	if isCol {
		return nil, true, fmt.Errorf("qgm: column %s is neither grouped nor aggregated", pe.SQL())
	}
	return nil, false, nil
}

// resolveAggCall maps an aggregate call to a GROUP BY output column, adding
// lower-box argument QCLs and GROUP BY aggregate QCLs on demand. AVG(x) is
// canonicalized to SUM(x)/COUNT(x), which makes it derivable through the
// paper's SUM and COUNT rules.
func (a *aggResolver) resolveAggCall(fc *parser.FuncCall) (Expr, error) {
	if fc.Star {
		if fc.Name != "count" {
			return nil, fmt.Errorf("qgm: %s(*) is not valid", fc.Name)
		}
		return a.addAgg(&Agg{Op: "count", Star: true}), nil
	}
	if len(fc.Args) != 1 {
		return nil, fmt.Errorf("qgm: %s() takes one argument", fc.Name)
	}
	if containsAggregate(fc.Args[0]) {
		return nil, fmt.Errorf("qgm: nested aggregate in %s()", fc.Name)
	}
	if fc.Name == "avg" && fc.Distinct {
		return nil, fmt.Errorf("qgm: avg(DISTINCT) is not supported")
	}
	arg, err := a.argCol(fc.Args[0])
	if err != nil {
		return nil, err
	}
	if fc.Name == "avg" {
		return &Bin{Op: "/", L: a.addAgg(&Agg{Op: "sum", Arg: arg}), R: a.addAgg(&Agg{Op: "count", Arg: arg})}, nil
	}
	return a.addAgg(&Agg{Op: fc.Name, Arg: arg, Distinct: fc.Distinct}), nil
}

// argCol resolves an aggregate's argument in the lower box and returns the
// reference to the lower-box QCL computing it, adding one if none does.
func (a *aggResolver) argCol(parg parser.Expr) (*ColRef, error) {
	argE, err := a.lower.resolve(parg)
	if err != nil {
		return nil, err
	}
	for i, c := range a.sel.Cols {
		if ExprEqual(c.Expr, argE, nil) {
			return &ColRef{Q: a.qSel, Col: i}, nil
		}
	}
	name := fmt.Sprintf("a%d", len(a.sel.Cols))
	if cr, ok := argE.(*ColRef); ok {
		name = cr.Q.Box.Cols[cr.Col].Name
		// Avoid clashing with an existing column of the lower box.
		if a.sel.ColIndex(name) >= 0 {
			name = fmt.Sprintf("%s_a%d", name, len(a.sel.Cols))
		}
	}
	a.sel.Cols = append(a.sel.Cols, QCL{Name: name, Expr: argE})
	return &ColRef{Q: a.qSel, Col: len(a.sel.Cols) - 1}, nil
}

// addAgg returns the GROUP BY column computing agg, adding one if none does.
func (a *aggResolver) addAgg(agg *Agg) Expr {
	for i := len(a.gb.GroupBy); i < len(a.gb.Cols); i++ {
		if ExprEqual(a.gb.Cols[i].Expr, agg, nil) {
			return &ColRef{Q: a.qGb, Col: i}
		}
	}
	name := fmt.Sprintf("agg%d", len(a.gb.Cols)-len(a.gb.GroupBy))
	a.gb.Cols = append(a.gb.Cols, QCL{Name: name, Expr: agg})
	return &ColRef{Q: a.qGb, Col: len(a.gb.Cols) - 1}
}
