package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// Observability counter names reported by the rewriter. Constant strings keep
// the disabled fast path allocation-free; the taxonomy is documented in
// DESIGN.md §9.
const (
	CtrMatchCandidates = "core.match.candidates"
	CtrMatchAccepts    = "core.match.accepts"
	CtrMatchRejects    = "core.match.rejects"
	CtrMatchPanics     = "core.match.panics"
	CtrPruned          = "core.prune.pruned"
	CtrPruneAdmitted   = "core.prune.admitted"
	CtrDegradations    = "core.degradations"
	CtrCacheHits       = "core.plancache.hits"
	CtrCacheMisses     = "core.plancache.misses"
	CtrCacheEvictions  = "core.plancache.evictions"
	// CtrCachePins counts the pinned literals of the plans stored, and
	// CtrCacheVariantMisses the misses on a known template — a pinned literal
	// differed — which together say why a dashboard does not hit.
	CtrCachePins          = "core.plancache.pins"
	CtrCacheVariantMisses = "core.plancache.variant_misses"
)

// CompiledAST is an Automatic Summary Table ready for matching: its
// definition, its QGM graph, the schema of its materialized table, and its
// pruning signature.
type CompiledAST struct {
	Def   catalog.ASTDef
	Graph *qgm.Graph
	Table *catalog.Table
	// Sig is the pruning signature computed at compile time (admit reads it);
	// nil disables pruning for this AST.
	Sig *catalog.Signature
}

// Rewriter rewrites queries to read ASTs instead of base tables. It holds no
// per-query state; one Rewriter serves many rewrites. Matching is
// best-effort: a panic inside one candidate's match attempt is recovered,
// recorded, and treated as "no match", so a single broken AST can cost
// rewrite opportunities but never the query.
type Rewriter struct {
	cat  *catalog.Catalog
	opts Options
	obsv *obs.Observer // nil = observability disabled
}

// NewRewriter returns a rewriter over the catalog with the given options.
func NewRewriter(cat *catalog.Catalog, opts Options) *Rewriter {
	return &Rewriter{cat: cat, opts: opts}
}

// Catalog returns the rewriter's catalog.
func (rw *Rewriter) Catalog() *catalog.Catalog { return rw.cat }

// SetObserver attaches an observer recording match counters, cache
// statistics, and the degradation event stream; nil detaches. Not safe to
// call concurrently with rewrites.
func (rw *Rewriter) SetObserver(o *obs.Observer) { rw.obsv = o }

// CompileAST parses and compiles an AST definition; it writes nothing. The
// returned Table describes the materialized result (callers populate it in
// storage before executing rewritten queries).
func (rw *Rewriter) CompileAST(def catalog.ASTDef) (*CompiledAST, error) {
	stmt, err := parser.Parse(def.SQL)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	g, err := qgm.Build(stmt, rw.cat)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	return &CompiledAST{Def: def, Graph: g, Table: g.Root.OutputTable(def.Name), Sig: ComputeSignature(rw.cat, g)}, nil
}

// noteDegraded records a degradation once, on the observer: the
// core.degradations counter and a core.degraded event carrying err (nothing
// without an observer).
func (rw *Rewriter) noteDegraded(err error) {
	rw.obsv.Add(CtrDegradations, 1)
	if rw.obsv.Enabled() {
		rw.obsv.Emit("core.degraded", err.Error())
	}
}

// usable reports whether an AST may serve rewrites in the status generation
// gen: quarantined ASTs never, stale ones only under Options.AllowStale.
func (rw *Rewriter) usable(gen *catalog.Statuses, ast *CompiledAST) bool {
	return gen.Usable(ast.Def.Name, rw.opts.AllowStale)
}

// querySig computes the query's pruning signature once per rewrite, or nil
// when pruning is disabled (Options.NoPrune) so every candidate is admitted.
func (rw *Rewriter) querySig(query *qgm.Graph) *catalog.Signature {
	if rw.opts.NoPrune {
		return nil
	}
	return ComputeSignature(rw.cat, query)
}

// admit checks one usable candidate's own signature against the query's
// before the full match is attempted. A nil signature on either side admits
// (pruning disabled, or a graph the signature cannot map).
func (rw *Rewriter) admit(qsig *catalog.Signature, ast *CompiledAST) bool {
	if qsig == nil {
		return true
	}
	if !rw.cat.SignatureAdmits(ast.Sig, qsig) {
		rw.obsv.Add(CtrPruned, 1)
		return false
	}
	rw.obsv.Add(CtrPruneAdmitted, 1)
	return true
}

// safeMatches runs the matcher for one candidate AST, converting a panic in
// the match machinery (or an injected fault at "core.match:<name>") into "no
// matches", so the rewrite moves on to the next candidate or the base plan.
// With trace set it also returns the matcher's decision log. Compensation
// boxes allocated by a candidate — matched, rejected or panicked — are
// unreachable from the query root until one match is spliced, and therefore
// inert: every candidate of one rewrite is matched on the same graph.
func (rw *Rewriter) safeMatches(ctx context.Context, query *qgm.Graph, ast *CompiledAST, trace bool) (out []*Match, log []TraceEntry) {
	defer func() {
		if r := recover(); r != nil {
			out, log = nil, nil
			rw.obsv.Add(CtrMatchPanics, 1)
			rw.noteDegraded(fmt.Errorf("core: match against AST %q panicked: %v", ast.Def.Name, r))
		}
	}()
	rw.obsv.Add(CtrMatchCandidates, 1)
	if err := faultinject.Hit("core.match:" + ast.Def.Name); err != nil {
		rw.noteDegraded(err)
		return nil, nil
	}
	matcher := NewMatcher(rw.cat, query, ast.Graph, rw.opts)
	matcher.obsv, matcher.trace = rw.obsv, trace
	return matcher.RunCtx(ctx), matcher.log
}

// Result describes one successful rewrite. A plan that reads several summary
// tables is one Result per splice: the first splice's fields, and the later
// ones, in splice order, in More.
type Result struct {
	AST      *CompiledAST
	Match    *Match
	Replaced *qgm.Box // the query box that was replaced
	More     []*Result
}

// Tables names the summary tables the plan reads, in splice order (a table
// spliced twice is named twice); nil for a nil Result.
func (r *Result) Tables() []string {
	if r == nil {
		return nil
	}
	names := []string{r.AST.Def.Name}
	for _, m := range r.More {
		names = append(names, m.AST.Def.Name)
	}
	return names
}

// Rewrite attempts to rewrite the query graph to read the given AST. On
// success it splices the AST's materialized table plus the compensation into
// the graph (mutating it) and returns a Result; it returns nil when no match
// exists, when the AST is stale/quarantined, or when matching panicked
// (recovered and recorded). When several query boxes match the AST's root,
// the highest (largest-subtree) one is replaced, maximizing the work the AST
// absorbs.
func (rw *Rewriter) Rewrite(query *qgm.Graph, ast *CompiledAST) *Result {
	if !rw.usable(rw.cat.Statuses(), ast) {
		return nil
	}
	matches, _ := rw.safeMatches(context.Background(), query, ast, false)
	if len(matches) == 0 {
		return nil
	}

	heights := boxHeights(query)
	var best *Match
	for _, mm := range matches {
		if best == nil || heights[mm.Subsumee.ID] > heights[best.Subsumee.ID] {
			best = mm
		}
	}

	rw.splice(query, ast, best)
	return &Result{AST: ast, Match: best, Replaced: best.Subsumee}
}

// Sizer is the database state a plan is chosen against: table cardinalities
// for cost-based AST applicability — problem (b) of the paper's introduction
// ("deciding whether an AST should actually be used in answering a query",
// citing Chaudhuri et al.) — and the summary tables' freshness. *storage.Store
// implements it; a pinned one answers both from the generation the plan will
// run on.
type Sizer interface {
	TableRows(name string) int
	Statuses() *catalog.Statuses
}

// Decision is what the selection loop established about one candidate summary
// table; EXPLAIN reports are built from it.
type Decision struct {
	AST    *CompiledAST
	Usable bool // its status lets it serve rewrites (see Rewriter.usable)
	Pruned bool // usable, but refused by the signature index before matching

	// Match is the candidate's root match of largest estimated gain, nil when
	// it has none; BaseRows/RewrittenRows are that match's scan-cost estimate.
	Match                   *Match
	BaseRows, RewrittenRows int

	Trace []TraceEntry
}

// selectBest is the one selection loop behind every multi-candidate entry
// point, the paper's §7 iteration in one matching pass. It matches each usable,
// admitted candidate once on the query graph and scores every root match by
// its estimated scan-cost gain (CostEstimate: base rows minus rewritten rows).
// Every match with a positive gain is kept; they are spliced by gain, equal
// gains to the smaller summary-table name (which makes the plan independent of
// the order of asts), each only while its subsumee is still intact: reachable
// from the root, over a subtree no earlier splice changed. With one set, only
// the best match is spliced. It returns nil when no match gains.
//
// All candidates share the graph: matching only allocates compensation boxes
// beside it (see safeMatches) and never edits a query box, so a match stays
// valid for as long as its subtree is the one it was made on. That is the
// watermark test: box IDs only grow, so every splice puts new boxes into the
// graph with IDs at or above one past the largest reachable before matching,
// and a subtree with none of them is unchanged. When the context expires,
// matching stops and the matches established so far are spliced (or none).
//
// A non-nil explain collects one Decision per entry of asts, in order, with
// tracing on; unusable and pruned candidates are then matched too, for their
// decision log, but stay out of the selection.
func (rw *Rewriter) selectBest(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer, gen *catalog.Statuses, explain *[]Decision, one bool) *Result {
	span := obs.SpanFromContext(ctx).Child("match")
	defer span.End()
	qsig := rw.querySig(query)
	mark := watermark(query)
	type paying struct {
		*Result
		gain int
	}
	var pays []paying
	for _, ast := range asts {
		usable := rw.usable(gen, ast)
		eligible := usable && rw.admit(qsig, ast)
		if !eligible && explain == nil {
			continue
		}
		d := Decision{AST: ast, Usable: usable, Pruned: usable && !eligible}
		var matches []*Match
		matches, d.Trace = rw.safeMatches(ctx, query, ast, explain != nil)
		for _, mm := range matches {
			base, rewritten := rw.CostEstimate(mm, ast, sizer)
			if d.Match == nil || base-rewritten > d.BaseRows-d.RewrittenRows {
				d.Match, d.BaseRows, d.RewrittenRows = mm, base, rewritten
			}
			if eligible && base > rewritten {
				pays = append(pays, paying{&Result{AST: ast, Match: mm, Replaced: mm.Subsumee}, base - rewritten})
			}
		}
		if explain != nil {
			*explain = append(*explain, d)
		}
	}
	sort.SliceStable(pays, func(i, j int) bool {
		if pays[i].gain != pays[j].gain {
			return pays[i].gain > pays[j].gain
		}
		return pays[i].AST.Def.Name < pays[j].AST.Def.Name
	})
	var res *Result
	for _, p := range pays {
		if res != nil && (one || !intact(query, p.Replaced, mark)) {
			continue
		}
		rw.splice(query, p.AST, p.Match)
		if res == nil {
			res = p.Result
		} else {
			res.More = append(res.More, p.Result)
		}
	}
	return res
}

// watermark is one past the largest box ID reachable from the root.
func watermark(g *qgm.Graph) int {
	mark := 0
	for _, b := range g.Boxes() {
		mark = max(mark, b.ID+1)
	}
	return mark
}

// intact reports whether box is still reachable from the root over a subtree
// of boxes that were all reachable before matching (IDs below mark).
func intact(g *qgm.Graph, box *qgm.Box, mark int) bool {
	var below func(b *qgm.Box) bool
	below = func(b *qgm.Box) bool {
		for _, q := range b.Quantifiers {
			if q.Box.ID >= mark || !below(q.Box) {
				return false
			}
		}
		return true
	}
	return slices.Contains(g.Boxes(), box) && below(box)
}

// RewriteBestCostCtx chooses among all (AST, matched box) candidates by a
// simple scan-cost model — rows read from the AST's materialized table plus
// its rejoined base tables, versus the base-table rows the replaced subtree
// would read — and splices every candidate estimated to beat the base plan,
// best first (see selectBest), bounded by the context. It returns nil when no
// candidate matches or none is estimated cheaper. Unlike RewriteOrFallback it
// does not verify the result, and like every selection entry point it mutates
// the query graph.
func (rw *Rewriter) RewriteBestCostCtx(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) *Result {
	return rw.selectBest(ctx, query, asts, sizer, sizer.Statuses(), nil, false)
}

// plan is the one planning function behind every route that must hand back a
// runnable graph: clone the query once, select and splice on the clone, and
// gate the result with verifyRewrite. When the gate refuses a plan of several
// splices, plan re-plans a fresh clone with the first splice only; when it
// refuses that too, it degrades to the untouched input graph. Each refusal is
// recorded, naming the plan it discarded.
func (rw *Rewriter) plan(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer, gen *catalog.Statuses, explain *[]Decision) (*qgm.Graph, *Result) {
	clone := query.Clone()
	res := rw.selectBest(ctx, clone, asts, sizer, gen, explain, false)
	if res == nil {
		return query, nil
	}
	err := verifyRewrite(clone)
	if err != nil && len(res.More) > 0 {
		rw.noteDegraded(fmt.Errorf("core: discarding invalid rewrite against %q, re-planning with %q only: %w",
			strings.Join(res.Tables(), ","), res.AST.Def.Name, err))
		clone = query.Clone()
		if res = rw.selectBest(ctx, clone, []*CompiledAST{res.AST}, sizer, gen, nil, true); res == nil {
			return query, nil
		}
		err = verifyRewrite(clone)
	}
	if err != nil {
		rw.noteDegraded(fmt.Errorf("core: discarding invalid rewrite against %q: %w", res.AST.Def.Name, err))
		return query, nil
	}
	return clone, res
}

// RewriteOrFallback is the resilient rewrite entry point: it always returns
// a runnable graph. It splices every summary table estimated to pay (see
// selectBest; sizer must not be nil) into a clone of the query; if no usable
// AST matches (or none is estimated cheaper), matching panics, or the
// rewritten graph fails verification, the original graph is returned
// untouched with a nil Result. The input graph is never mutated, so callers
// can re-run it as the base plan if executing the rewritten plan later fails.
func (rw *Rewriter) RewriteOrFallback(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) (*qgm.Graph, *Result) {
	return rw.plan(ctx, query, asts, sizer, sizer.Statuses(), nil)
}

// ExplainRewrite is RewriteOrFallback that also reports, per entry of asts,
// what the selection established (with the matcher's decision log). The plan
// and Result it returns are the ones RewriteOrFallback returns for the same
// arguments: both run the same loop and the same gate.
func (rw *Rewriter) ExplainRewrite(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) (*qgm.Graph, *Result, []Decision) {
	decisions := make([]Decision, 0, len(asts))
	plan, res := rw.plan(ctx, query, asts, sizer, sizer.Statuses(), &decisions)
	return plan, res, decisions
}

// verifyRewrite gates an accepted rewrite with qgmcheck.Structural: shapes,
// pointer-identity bindings, aggregate placement, grouping-set
// canonicalization, scalar arity. A failure discards the rewrite (the caller
// degrades to the base plan); it is never a query failure.
func verifyRewrite(g *qgm.Graph) error {
	if err := faultinject.Hit("core.verify"); err != nil {
		return err
	}
	return qgmcheck.Structural(g)
}

// Explain runs the matcher with tracing enabled (without rewriting) and
// returns the per-candidate-pair decision log: which box pairs matched, which
// failed, and which of the paper's conditions rejected them. The sweep stops
// when ctx expires. Matching allocates compensation boxes in the query graph;
// pass a throwaway graph.
func (rw *Rewriter) Explain(ctx context.Context, query *qgm.Graph, ast *CompiledAST) []TraceEntry {
	_, log := rw.safeMatches(ctx, query, ast, true)
	return log
}

// Options returns the rewriter's option set.
func (rw *Rewriter) Options() Options { return rw.opts }

// CostEstimate returns the scan-cost model behind cost-based rewrite
// selection, in rows read: the base plan's cost counts each base-table
// quantifier under the replaced subtree once (a scan per join operand); the
// rewritten plan's cost is the materialized AST's rows plus any rejoined base
// tables in the compensation. EXPLAIN surfaces both numbers per candidate.
func (rw *Rewriter) CostEstimate(mm *Match, ast *CompiledAST, sizer Sizer) (baseRows, rewrittenRows int) {
	var walk func(b *qgm.Box) // a query graph shares no box but base tables
	walk = func(b *qgm.Box) {
		for _, q := range b.Quantifiers {
			if q.Box.Kind == qgm.BaseTableBox {
				baseRows += sizer.TableRows(q.Box.Table.Name)
			} else {
				walk(q.Box)
			}
		}
	}
	walk(mm.Subsumee)

	rewrittenRows = sizer.TableRows(ast.Def.Name)
	for _, b := range mm.Stack {
		for _, q := range b.Quantifiers {
			if q != mm.SubQ && q.Box.Kind == qgm.BaseTableBox {
				rewrittenRows += sizer.TableRows(q.Box.Table.Name)
			}
		}
	}
	return baseRows, rewrittenRows
}

// splice replaces the matched subsumee box with the compensation over the
// AST's materialized table.
func (rw *Rewriter) splice(query *qgm.Graph, ast *CompiledAST, mm *Match) {
	astBase := query.BaseTableBox(ast.Table)

	var top *qgm.Box
	if mm.Exact {
		// Pure projection of the materialized table.
		proj := query.NewBox(qgm.SelectBox, compLabel("Sel"))
		q := query.NewQuantifier(qgm.ForEach, astBase, "")
		proj.Quantifiers = []*qgm.Quantifier{q}
		for i, col := range mm.Subsumee.Cols {
			proj.Cols = append(proj.Cols, qgm.QCL{
				Name: col.Name,
				Expr: &qgm.ColRef{Q: q, Col: mm.ColMap[i]},
			})
		}
		top = proj
	} else {
		// Re-point the compensation's subsumer quantifier at the
		// materialized table (its columns align with the AST root's output
		// columns by construction).
		mm.SubQ.Box = astBase
		top = mm.Comp()
	}

	if query.Root == mm.Subsumee {
		query.Root = top
		return
	}
	for _, b := range query.Boxes() {
		for _, q := range b.Quantifiers {
			if q.Box == mm.Subsumee {
				q.Box = top
			}
		}
	}
}

// boxHeights computes each box's height (longest path to a leaf), used to
// prefer replacing the largest matched subtree.
func boxHeights(g *qgm.Graph) map[int]int {
	h := map[int]int{}
	for _, b := range g.Boxes() { // bottom-up order
		best := 0
		for _, q := range b.Quantifiers {
			if hh := h[q.Box.ID] + 1; hh > best {
				best = hh
			}
		}
		h[b.ID] = best
	}
	return h
}
