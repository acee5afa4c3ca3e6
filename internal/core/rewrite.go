package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/rcu"
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

// CompiledAST is a registered Automatic Summary Table ready for matching: its
// definition, its QGM graph, and the schema of its materialized table.
type CompiledAST struct {
	Def   catalog.ASTDef
	Graph *qgm.Graph
	Table *catalog.Table
	// Sig is the pruning signature computed at compile time and registered in
	// the catalog's signature index; nil disables pruning for this AST.
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

	degraded rcu.Guarded[degradationLog]
}

// degradationLog is the bounded buffer Degradations drains.
type degradationLog struct {
	events  []DegradationEvent
	dropped int // events evicted since the last drain
}

// DegradationEvent is one recorded degradation, stamped with a process-wide
// monotonic sequence number (obs.NextSeq) so it can be ordered against
// catalog and maintenance events on one total order.
type DegradationEvent struct {
	Seq uint64
	Err error
}

// maxDegradations bounds the degradation events retained between drains. A
// long-running server with a persistently broken AST degrades on every query;
// without the cap an undrained Rewriter would leak memory. The newest events
// are kept (they are the ones worth diagnosing) and evictions are counted.
const maxDegradations = 128

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

// CompileAST parses and compiles an AST definition. The returned Table
// describes the materialized result (callers register it in the catalog and
// populate it in storage before executing rewritten queries).
func (rw *Rewriter) CompileAST(def catalog.ASTDef) (*CompiledAST, error) {
	stmt, err := parser.Parse(def.SQL)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	g, err := qgm.Build(stmt, rw.cat)
	if err != nil {
		return nil, fmt.Errorf("core: AST %q: %w", def.Name, err)
	}
	sig := ComputeSignature(rw.cat, g)
	rw.cat.SetASTSignature(def.Name, sig)
	return &CompiledAST{Def: def, Graph: g, Table: g.Root.OutputTable(def.Name), Sig: sig}, nil
}

// CompileAll compiles every AST registered in the catalog. A definition that
// fails to compile is skipped, not fatal: the successfully compiled ASTs are
// always returned, alongside a joined error carrying one entry per broken
// definition (nil when all compiled). Callers should use the returned slice
// even when err != nil.
func (rw *Rewriter) CompileAll() ([]*CompiledAST, error) {
	var out []*CompiledAST
	var errs []error
	for _, def := range rw.cat.ASTs() {
		ca, err := rw.CompileAST(def)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, ca)
	}
	return out, errors.Join(errs...)
}

// MatchPanicError records a panic recovered during one AST's match attempt.
type MatchPanicError struct {
	AST   string
	Value any
}

func (e *MatchPanicError) Error() string {
	return fmt.Sprintf("core: match against AST %q panicked: %v", e.AST, e.Value)
}

// noteDegraded records a degradation event for later inspection, evicting the
// oldest retained event once the buffer holds maxDegradations. Each event
// draws a process-wide sequence number and, when an observer is attached, is
// mirrored into its event stream under the same number.
func (rw *Rewriter) noteDegraded(err error) {
	ev := DegradationEvent{Seq: obs.NextSeq(), Err: err}
	rw.degraded.Do(func(l *degradationLog) {
		if len(l.events) >= maxDegradations {
			copy(l.events, l.events[1:])
			l.events[len(l.events)-1] = ev
			l.dropped++
		} else {
			l.events = append(l.events, ev)
		}
	})
	rw.obsv.Add(CtrDegradations, 1)
	if rw.obsv.Enabled() {
		rw.obsv.EmitSeq(ev.Seq, "core.degraded", err.Error())
	}
}

// Degradations drains and returns the degradation errors (recovered match
// panics, discarded invalid rewrites) recorded since the last call. At most
// maxDegradations events are retained between drains; when older events were
// evicted, the first entry is a synthetic error reporting how many. Use
// DegradationEvents to also get the sequence numbers.
func (rw *Rewriter) Degradations() []error {
	events, dropped := rw.DegradationEvents()
	out := make([]error, 0, len(events)+1)
	if dropped > 0 {
		out = append(out, fmt.Errorf("core: %d older degradation events dropped", dropped))
	}
	for _, ev := range events {
		out = append(out, ev.Err)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DegradationEvents drains and returns the sequenced degradation events
// recorded since the last call, plus how many older events were evicted from
// the bounded buffer before this drain.
func (rw *Rewriter) DegradationEvents() (events []DegradationEvent, dropped int) {
	rw.degraded.Do(func(l *degradationLog) {
		events, dropped = l.events, l.dropped
		*l = degradationLog{}
	})
	return events, dropped
}

// usable reports whether an AST may serve rewrites right now: quarantined
// ASTs never, stale ones only under Options.AllowStale.
func (rw *Rewriter) usable(ast *CompiledAST) bool {
	return rw.cat.Usable(ast.Def.Name, rw.opts.AllowStale)
}

// querySig computes the query's pruning signature once per rewrite, or nil
// when pruning is disabled (Options.NoPrune) so every candidate is admitted.
func (rw *Rewriter) querySig(query *qgm.Graph) *catalog.Signature {
	if rw.opts.NoPrune {
		return nil
	}
	return ComputeSignature(rw.cat, query)
}

// admit consults the catalog signature index for one candidate before the
// full match is attempted. A nil query signature admits everything (pruning
// disabled or the query references tables the index cannot map).
func (rw *Rewriter) admit(qsig *catalog.Signature, ast *CompiledAST) bool {
	if qsig == nil {
		return true
	}
	if !rw.cat.AdmitsAST(ast.Def.Name, qsig, rw.opts.AllowStale) {
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
			rw.noteDegraded(&MatchPanicError{AST: ast.Def.Name, Value: r})
		}
	}()
	rw.obsv.Add(CtrMatchCandidates, 1)
	if err := faultinject.Hit("core.match:" + ast.Def.Name); err != nil {
		rw.noteDegraded(err)
		return nil, nil
	}
	opts := rw.opts
	if trace {
		opts.Trace = true
	}
	matcher := NewMatcher(rw.cat, query, ast.Graph, opts)
	matcher.obsv = rw.obsv
	return matcher.RunCtx(ctx), matcher.Trace()
}

// Result describes one successful rewrite.
type Result struct {
	AST      *CompiledAST
	Match    *Match
	Replaced *qgm.Box // the query box that was replaced
}

// Rewrite attempts to rewrite the query graph to read the given AST. On
// success it splices the AST's materialized table plus the compensation into
// the graph (mutating it) and returns a Result; it returns nil when no match
// exists, when the AST is stale/quarantined, or when matching panicked
// (recovered and recorded). When several query boxes match the AST's root,
// the highest (largest-subtree) one is replaced, maximizing the work the AST
// absorbs.
func (rw *Rewriter) Rewrite(query *qgm.Graph, ast *CompiledAST) *Result {
	if !rw.usable(ast) {
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

// Sizer estimates table cardinalities for cost-based AST applicability —
// problem (b) of the paper's introduction ("deciding whether an AST should
// actually be used in answering a query", citing Chaudhuri et al.).
// *storage.Store implements it.
type Sizer interface {
	TableRows(name string) int
}

// Decision is what the selection loop established about one candidate summary
// table; EXPLAIN reports are built from it.
type Decision struct {
	AST    *CompiledAST
	Usable bool // its status lets it serve rewrites (see Rewriter.usable)
	Pruned bool // usable, but refused by the signature index before matching

	// Match is the candidate's best root match under the loop's score, nil
	// when it has none; BaseRows/RewrittenRows are that match's scan-cost
	// estimate (zero without a Sizer).
	Match                   *Match
	BaseRows, RewrittenRows int

	Trace []TraceEntry
}

// selectBest is the one selection loop behind every multi-candidate entry
// point: it matches each usable, admitted candidate in turn on the query
// graph, scores every root match, and splices the best one (mutating the
// graph); it returns nil when no candidate scores above zero. With a Sizer the
// score is the estimated scan-cost gain (CostEstimate: base rows minus
// rewritten rows), so a match that is not estimated cheaper than the base plan
// never wins, and equal gains resolve to the smaller summary-table name, which
// makes the choice independent of the order of asts. Without one the score is
// the height of the replaced box, the first candidate winning ties.
//
// All candidates share the graph: matching only allocates compensation boxes
// beside it (see safeMatches), and the single splice at the end is the only
// mutation a reader of the graph can observe. When the context expires,
// matching stops and the best match established so far is applied (or none).
//
// A non-nil explain collects one Decision per entry of asts, in order, with
// tracing on; unusable and pruned candidates are then matched too, for their
// decision log, but stay out of the selection.
func (rw *Rewriter) selectBest(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer, explain *[]Decision) *Result {
	span := obs.SpanFromContext(ctx).Child("match")
	defer span.End()
	qsig := rw.querySig(query)
	var heights map[int]int
	if sizer == nil {
		heights = boxHeights(query)
	}
	var best Decision
	bestScore := 0
	for _, ast := range asts {
		usable := rw.usable(ast)
		eligible := usable && rw.admit(qsig, ast)
		if !eligible && explain == nil {
			continue
		}
		d := Decision{AST: ast, Usable: usable, Pruned: usable && !eligible}
		score := 0
		var matches []*Match
		matches, d.Trace = rw.safeMatches(ctx, query, ast, explain != nil)
		for _, mm := range matches {
			s, base, rewritten := heights[mm.Subsumee.ID], 0, 0
			if sizer != nil {
				base, rewritten = rw.CostEstimate(mm, ast, sizer)
				s = base - rewritten
			}
			if d.Match == nil || s > score {
				d.Match, score, d.BaseRows, d.RewrittenRows = mm, s, base, rewritten
			}
		}
		if explain != nil {
			*explain = append(*explain, d)
		}
		if eligible && (score > bestScore ||
			(score == bestScore && score > 0 && sizer != nil && ast.Def.Name < best.AST.Def.Name)) {
			best, bestScore = d, score
		}
	}
	if best.Match == nil {
		return nil
	}
	rw.splice(query, best.AST, best.Match)
	return &Result{AST: best.AST, Match: best.Match, Replaced: best.Match.Subsumee}
}

// RewriteBest tries every compiled AST and applies the one matching the
// highest query box; it returns nil when none match. (The paper routes a
// query towards multiple ASTs by iterating; RewriteBest is one iteration.)
// Stale and quarantined ASTs are skipped; a candidate whose match attempt
// panics is skipped (recovered and recorded), never fatal.
func (rw *Rewriter) RewriteBest(query *qgm.Graph, asts []*CompiledAST) *Result {
	return rw.selectBest(context.Background(), query, asts, nil, nil)
}

// RewriteBestCtx is RewriteBest bounded by a context.
func (rw *Rewriter) RewriteBestCtx(ctx context.Context, query *qgm.Graph, asts []*CompiledAST) *Result {
	return rw.selectBest(ctx, query, asts, nil, nil)
}

// RewriteBestCost chooses among all (AST, matched box) candidates by a simple
// scan-cost model — rows read from the AST's materialized table plus its
// rejoined base tables, versus the base-table rows the replaced subtree would
// read — and applies the cheapest candidate only if it actually beats the
// base plan. It returns nil when no candidate matches or none is estimated
// cheaper.
func (rw *Rewriter) RewriteBestCost(query *qgm.Graph, asts []*CompiledAST, sizer Sizer) *Result {
	return rw.selectBest(context.Background(), query, asts, sizer, nil)
}

// RewriteBestCostCtx is RewriteBestCost bounded by a context. Like every
// selection entry point it mutates the query graph; see selectBest.
func (rw *Rewriter) RewriteBestCostCtx(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) *Result {
	return rw.selectBest(ctx, query, asts, sizer, nil)
}

// plan is the one planning function behind every route that must hand back a
// runnable graph: clone the query once, select and splice on the clone, gate
// the result with verifyRewrite, and degrade to the untouched input graph —
// recording why — when the gate refuses it.
func (rw *Rewriter) plan(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer, explain *[]Decision) (*qgm.Graph, *Result) {
	clone := query.Clone()
	res := rw.selectBest(ctx, clone, asts, sizer, explain)
	if res == nil {
		return query, nil
	}
	if err := rw.verifyRewrite(clone, asts); err != nil {
		rw.noteDegraded(fmt.Errorf("core: discarding invalid rewrite against %q: %w", res.AST.Def.Name, err))
		return query, nil
	}
	return clone, res
}

// RewriteOrFallback is the resilient rewrite entry point: it always returns
// a runnable graph. It attempts the best rewrite — by cost when a Sizer is
// given, by box height when it is nil — on a clone of the query; if no usable
// AST matches (or none is estimated cheaper), matching panics, or the
// rewritten graph fails verification, the original graph is returned
// untouched with a nil Result. The input graph is never mutated, so callers
// can re-run it as the base plan if executing the rewritten plan later fails.
func (rw *Rewriter) RewriteOrFallback(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) (*qgm.Graph, *Result) {
	return rw.plan(ctx, query, asts, sizer, nil)
}

// ExplainRewrite is RewriteOrFallback that also reports, per entry of asts,
// what the selection established (with the matcher's decision log). The plan
// and Result it returns are the ones RewriteOrFallback returns for the same
// arguments: both run the same loop and the same gate.
func (rw *Rewriter) ExplainRewrite(ctx context.Context, query *qgm.Graph, asts []*CompiledAST, sizer Sizer) (*qgm.Graph, *Result, []Decision) {
	decisions := make([]Decision, 0, len(asts))
	plan, res := rw.plan(ctx, query, asts, sizer, &decisions)
	return plan, res, decisions
}

// verifyRewrite gates an accepted rewrite. The structural check
// (qgmcheck.Structural: shapes, pointer-identity bindings, aggregate
// placement, grouping-set canonicalization, scalar arity) always runs; with
// Options.VerifyPlans the full semantic checker runs too — type inference and
// the compensation post-conditions of internal/qgmcheck, classified against
// the candidate AST definitions. Verification failures discard the rewrite
// (the caller degrades to the base plan); they are never query failures.
func (rw *Rewriter) verifyRewrite(g *qgm.Graph, asts []*CompiledAST) error {
	if err := qgmcheck.Structural(g); err != nil {
		return err
	}
	if !rw.opts.VerifyPlans {
		return nil
	}
	defs := make(map[string]*qgm.Graph, len(asts))
	for _, ca := range asts {
		defs[ca.Def.Name] = ca.Graph
	}
	ck := &qgmcheck.Checker{ASTDefs: defs}
	return qgmcheck.AsError(ck.Check(g))
}

// Explain runs the matcher with tracing enabled (without rewriting) and
// returns the per-candidate-pair decision log: which box pairs matched, which
// failed, and which of the paper's conditions rejected them. Matching
// allocates compensation boxes in the query graph; pass a throwaway graph.
func (rw *Rewriter) Explain(query *qgm.Graph, ast *CompiledAST) []TraceEntry {
	_, log := rw.safeMatches(context.Background(), query, ast, true)
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
	seen := map[int]bool{}
	var walk func(b *qgm.Box)
	walk = func(b *qgm.Box) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
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

// RewriteAll routes the query towards multiple ASTs by the paper's iterative
// process (§7): at each iteration the result of the previous rewrite is
// matched against the remaining ASTs, until no AST matches. It returns the
// applied rewrites in order.
func (rw *Rewriter) RewriteAll(query *qgm.Graph, asts []*CompiledAST) []*Result {
	var out []*Result
	remaining := append([]*CompiledAST(nil), asts...)
	// Each successful iteration consumes base-table regions; bound the loop
	// defensively anyway.
	for iter := 0; iter <= len(asts); iter++ {
		res := rw.RewriteBest(query, remaining)
		if res == nil {
			return out
		}
		out = append(out, res)
		// An AST applied once is unlikely to apply again (its region now
		// reads the materialized table); drop it to guarantee progress.
		next := remaining[:0]
		for _, a := range remaining {
			if a != res.AST {
				next = append(next, a)
			}
		}
		remaining = next
	}
	return out
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
