// Package astdb is the unified facade over the Automatic Summary Table
// reproduction: one Engine value ties together the catalog, storage, the
// rewriter (matching §3–§6 of the paper), the executor, the plan cache, and
// incremental maintenance, behind context-first Query / Rewrite / Explain /
// Refresh entry points.
//
// The facade also carries the degrade-gracefully contract that used to live in
// internal/resilient: routing a query through a summary table is an
// optimization, never a source of failure. Broken AST definitions, match
// panics, stale or quarantined materializations, and unreadable materialized
// tables all degrade to the base plan; only typed budget errors
// (exec.ErrBudgetExceeded, exec.ErrCanceled) and base-table failures surface.
//
// Observability is opt-in via WithObserver: the engine then records
// hierarchical spans (query → parse/match/plancache.lookup/exec), monotonic
// counters, latency histograms, and a sequenced event stream, all exposed
// through Snapshot. Without an observer every instrumentation point is a
// nil-receiver no-op.
package astdb

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Re-exported pipeline types, so facade users need no internal imports.
type (
	// Result is an executed query's column names and rows.
	Result = exec.Result
	// Config is the budget and the path of one engine run (row budget,
	// timeout, pipeline workers, reference interpreter).
	Config = exec.Config
	// Stats describes one AST maintenance action.
	Stats = maintain.Stats
	// Rewrite is the outcome of a plan-cache-aware rewrite.
	Rewrite = core.CachedRewrite
)

// SortRows orders result rows deterministically (for display and diffing).
func SortRows(rows [][]sqltypes.Value) { exec.SortRows(rows) }

// Engine is the facade: a catalog plus storage, executor, rewriter, plan
// cache, and maintainer. Construct one with Open (fresh pipeline) or Wrap
// (around existing components). Queries run lock-free beside each other and
// beside one writer; the methods that change table contents or the set of
// summary tables take turns (see write). CreateTable and AddForeignKey are
// schema setup and do not: run them before statements name the table.
type Engine struct {
	cat   *catalog.Catalog
	store *storage.Store
	exe   *exec.Engine
	rw    *core.Rewriter
	maint *maintain.Maintainer
	obsv  *obs.Observer
	cfg   exec.Config
	cache *core.PlanCache // nil = plan caching disabled

	// verifyPlans checks every parsed graph with qgmcheck (WithVerifyPlans).
	verifyPlans bool

	// set is read on every Query and every DML statement with one atomic
	// load; registering a summary table publishes the next generation, so
	// engine bookkeeping never serializes concurrent Query calls.
	set rcu.Cell[astSet]

	// writer is the single writer slot (capacity 1), held through write. It
	// is a channel rather than a mutex so that waiting can give up on ctx.
	writer chan struct{}
}

// astSet is one generation of the registered summary tables: the compiled
// definitions in registration order and, index for index, the maintenance
// plan of each. Both slices are immutable once published — callers, and
// everything they pass them to, must not append to or reorder them.
type astSet struct {
	asts  []*core.CompiledAST
	plans []*maintain.Plan
}

// register publishes the set extended by the given summary tables, analyzing
// each for maintenance.
func (e *Engine) register(asts ...*core.CompiledAST) {
	e.set.Update(func(s astSet) astSet {
		next := astSet{
			asts:  append(s.asts[:len(s.asts):len(s.asts)], asts...),
			plans: s.plans[:len(s.plans):len(s.plans)],
		}
		for _, ca := range asts {
			next.plans = append(next.plans, e.maint.Analyze(ca))
		}
		return next
	})
}

// settings accumulates functional options.
type settings struct {
	cfg         exec.Config
	cacheCap    int // 0 = default size, <0 = disabled
	obsv        *obs.Observer
	coreOpts    core.Options
	verifyPlans bool
}

// Option configures Open and Wrap.
type Option func(*settings)

// WithLimits sets the execution config (row budget, timeout, parallelism)
// applied to every query and materialization the engine runs.
func WithLimits(cfg exec.Config) Option { return func(c *settings) { c.cfg = cfg } }

// WithPlanCache sizes the rewrite plan cache: n > 0 sets the capacity, n == 0
// keeps the default (core.DefaultPlanCacheSize), n < 0 disables caching.
func WithPlanCache(n int) Option { return func(c *settings) { c.cacheCap = n } }

// WithObserver attaches an observability sink. The observer is threaded
// through the rewriter, executor, catalog, and maintainer, so spans, counters,
// and events from every pipeline stage land in one Snapshot.
func WithObserver(o *obs.Observer) Option { return func(c *settings) { c.obsv = o } }

// WithAllowStale lets queries read summary tables marked stale (quarantined
// ones are never used). Open only; Wrap keeps the passed rewriter's options.
func WithAllowStale(allow bool) Option {
	return func(c *settings) { c.coreOpts.AllowStale = allow }
}

// WithVerifyPlans turns on static plan verification (internal/qgmcheck) at
// both engine seams: every parsed query graph is checked post-build (a
// failing build is an engine bug and surfaces as an error), and the rewriter
// runs the deep semantic checker over every accepted rewrite (a failing
// rewrite is discarded and the query degrades to the base plan). Default off:
// the deep checker allocates per plan, and the zero-overhead observability
// contract holds only without it. Open only; Wrap keeps the passed rewriter's
// options, but the post-parse seam still applies.
func WithVerifyPlans(on bool) Option {
	return func(c *settings) {
		c.coreOpts.VerifyPlans = on
		c.verifyPlans = on
	}
}

// Open builds a fresh pipeline over the catalog and compiles every summary
// table definition registered in it. Compilation failures are not fatal: the
// engine is returned usable with the definitions that did compile, alongside
// a joined error naming the broken ones. Materializations are not computed;
// call Refresh to populate (or re-populate) the summary tables.
func Open(cat *catalog.Catalog, options ...Option) (*Engine, error) {
	c := settings{}
	for _, o := range options {
		o(&c)
	}
	store := storage.NewStore()
	rw := core.NewRewriter(cat, c.coreOpts)
	e := assemble(cat, store, exec.NewEngine(store), rw, c)
	asts, err := rw.CompileAll()
	e.register(asts...)
	return e, err
}

// Wrap builds the facade around existing components — an executor, a rewriter,
// and compiled summary tables — without copying or re-registering anything.
// The store and catalog come from the executor and rewriter; WithAllowStale
// is ignored.
func Wrap(rw *core.Rewriter, exe *exec.Engine, asts []*core.CompiledAST, options ...Option) *Engine {
	c := settings{}
	for _, o := range options {
		o(&c)
	}
	e := assemble(rw.Catalog(), exe.Store(), exe, rw, c)
	e.register(asts...)
	return e
}

func assemble(cat *catalog.Catalog, store *storage.Store, exe *exec.Engine, rw *core.Rewriter, c settings) *Engine {
	e := &Engine{
		cat:   cat,
		store: store,
		exe:   exe,
		rw:    rw,
		maint: maintain.New(store).WithCatalog(cat),
		cfg:   c.cfg,

		writer: make(chan struct{}, 1),

		verifyPlans: c.verifyPlans,
	}
	if c.cacheCap >= 0 {
		e.cache = core.NewPlanCache(c.cacheCap)
	}
	if c.obsv != nil {
		e.obsv = c.obsv
		rw.SetObserver(c.obsv)
		exe.SetObserver(c.obsv)
		cat.SetObserver(c.obsv)
		e.maint.WithObserver(c.obsv)
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store returns the engine's storage.
func (e *Engine) Store() *storage.Store { return e.store }

// Rewriter returns the underlying rewriter.
func (e *Engine) Rewriter() *core.Rewriter { return e.rw }

// Observer returns the attached observer (nil when observability is off).
func (e *Engine) Observer() *obs.Observer { return e.obsv }

// Snapshot returns a copy of the observer's state; the zero Snapshot when no
// observer is attached.
func (e *Engine) Snapshot() obs.Snapshot { return e.obsv.Snapshot() }

// ASTs returns the compiled summary tables, in registration order. The
// returned slice is the caller's to mutate.
func (e *Engine) ASTs() []*core.CompiledAST {
	return append([]*core.CompiledAST(nil), e.set.Load().asts...)
}

// Degradations drains the degradation errors (recovered match panics,
// discarded invalid rewrites) recorded since the last call.
func (e *Engine) Degradations() []error { return e.rw.Degradations() }

// DegradationEvents drains the sequenced degradation events and reports how
// many older ones the bounded buffer evicted before this drain.
func (e *Engine) DegradationEvents() ([]core.DegradationEvent, int) {
	return e.rw.DegradationEvents()
}

// write makes the caller the engine's one writer. Every mutating entry point —
// Insert, Delete, Update, ExecStatement/ExecParsed, Refresh, CreateSummaryTable
// — starts here: it opens the "maintain" span and takes the writer slot, which
// the returned function gives back (and ends the span). Each of those is a
// read-modify-publish sequence over the base table and the summary tables
// reading it (maintain.Maintainer's apply), and two of them interleaved lose
// base rows and leave summary tables fresh and wrong; the slot is where they
// meet. Waiting honours ctx — a statement queued behind a long writer whose
// session goes away returns ErrCanceled having touched nothing — and Query
// never comes here: readers stay lock-free.
func (e *Engine) write(ctx context.Context) (context.Context, func(), error) {
	span := e.startSpan(ctx, "maintain")
	select {
	case e.writer <- struct{}{}:
		if ctx.Err() == nil {
			return obs.ContextWithSpan(ctx, span), func() { <-e.writer; span.End() }, nil
		}
		<-e.writer // both were ready and select chose the slot: canceled wins
	case <-ctx.Done():
	}
	span.End()
	return nil, nil, fmt.Errorf("%w: waiting for the writer slot: %v", ErrCanceled, context.Cause(ctx))
}

// startSpan roots a span on the engine's observer, or nests it under a span
// already carried by the context.
func (e *Engine) startSpan(ctx context.Context, name string) obs.Span {
	if parent := obs.SpanFromContext(ctx); parent.Enabled() {
		return parent.Child(name)
	}
	return e.obsv.Start(name)
}

// Answer is the outcome of one resilient query.
type Answer struct {
	Result *exec.Result
	// Plan is the graph that produced Result: the rewritten plan when a
	// summary table served the query, the base plan otherwise.
	Plan *qgm.Graph
	// Rewrite carries the match details when the rewriter matched a summary
	// table; nil on base plans and on plan-cache hits (the match ran when the
	// plan was first cached).
	Rewrite *core.Result
	// AST names the summary table the plan read; "" means base tables.
	AST string
	// FellBack marks a query that was rewritten but answered from base tables
	// because executing the rewritten plan failed.
	FellBack bool
	// CacheHit reports that the plan came from the plan cache (no matching
	// ran).
	CacheHit bool
}

// Query answers one SQL query with graceful degradation, through the plan
// cache when one is configured: parse, rewrite against the registered summary
// tables (the candidate estimated cheapest, with or without a cache), execute
// under the engine's limits, and fall back to the base plan — marking the AST
// stale — if the rewritten plan fails. Only typed budget errors and
// base-plan failures are returned.
func (e *Engine) Query(ctx context.Context, sql string) (*Answer, error) {
	span := e.startSpan(ctx, "query")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	if e.cache == nil {
		g, err := e.parse(span, sql)
		if err != nil {
			return nil, err
		}
		return e.queryGraph(ctx, g)
	}
	cr, err := e.rw.RewriteSQLCached(ctx, e.cache, sql, e.set.Load().asts, e.store)
	if err != nil {
		return nil, compileError(err)
	}
	r, err := e.runPlan(ctx, cr.Plan)
	if err == nil {
		return &Answer{Result: r, Plan: cr.Plan, Rewrite: cr.Rewrite, AST: cr.AST, CacheHit: cr.Hit}, nil
	}
	if cr.AST == "" || errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
		return nil, err
	}
	// The rewritten plan failed (e.g. the materialized table is unreadable).
	// Mark the AST stale — which also puts the cached plan out of reach, its
	// key being the usable set — and answer from base tables.
	e.cat.MarkStale(cr.AST)
	base, berr := e.parse(span, sql)
	if berr != nil {
		return nil, err
	}
	r, err = e.runPlan(ctx, base)
	if err != nil {
		return nil, err
	}
	return &Answer{Result: r, Plan: base, Rewrite: cr.Rewrite, FellBack: true, CacheHit: cr.Hit}, nil
}

// QueryGraph is Query for an already-built graph; it bypasses the plan cache.
// The input graph is never mutated (the rewrite works on a clone), so it
// stays available as the fallback base plan.
func (e *Engine) QueryGraph(ctx context.Context, query *qgm.Graph) (*Answer, error) {
	span := e.startSpan(ctx, "query")
	defer span.End()
	return e.queryGraph(obs.ContextWithSpan(ctx, span), query)
}

func (e *Engine) queryGraph(ctx context.Context, query *qgm.Graph) (*Answer, error) {
	plan, res := e.rw.RewriteOrFallback(ctx, query, e.set.Load().asts, e.store)
	r, err := e.runPlan(ctx, plan)
	if err == nil {
		ans := &Answer{Result: r, Plan: plan, Rewrite: res}
		if res != nil {
			ans.AST = res.AST.Def.Name
		}
		return ans, nil
	}
	// Budget exhaustion and cancellation surface typed: retrying on base
	// tables could only be slower.
	if res == nil || errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
		return nil, err
	}
	e.cat.MarkStale(res.AST.Def.Name)
	r, err = e.runPlan(ctx, query)
	if err != nil {
		return nil, err
	}
	return &Answer{Result: r, Plan: query, Rewrite: res, FellBack: true}, nil
}

// Rewrite plans one SQL query without executing it, choosing the plan Query
// would. Naming summary tables in only restricts the candidate set (bypassing
// the cache, whose entries are keyed against the full set); a name that is no
// registered summary table is an error (ErrUnknownTable).
func (e *Engine) Rewrite(ctx context.Context, sql string, only ...string) (*Rewrite, error) {
	span := e.startSpan(ctx, "rewrite")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	if e.cache != nil && len(only) == 0 {
		cr, err := e.rw.RewriteSQLCached(ctx, e.cache, sql, e.set.Load().asts, e.store)
		if err != nil {
			return nil, compileError(err)
		}
		return cr, nil
	}
	sel, err := e.set.Load().only(only)
	if err != nil {
		return nil, err
	}
	g, err := e.parse(span, sql)
	if err != nil {
		return nil, err
	}
	plan, res := e.rw.RewriteOrFallback(ctx, g, sel.asts, e.store)
	cr := &Rewrite{Plan: plan, Rewrite: res}
	if res != nil {
		cr.AST = res.AST.Def.Name
	}
	return cr, nil
}

// Execute runs one graph under the engine's limits, with panics converted to
// errors. It performs no rewriting and no fallback.
func (e *Engine) Execute(ctx context.Context, g *qgm.Graph) (*exec.Result, error) {
	return e.runPlan(ctx, g)
}

// parse builds a graph from SQL under a "parse" child span, classifying
// failures under the typed error surface (ErrParse / ErrUnknownTable). With
// WithVerifyPlans, the built graph is additionally run through the static
// checker: a violation here means the builder produced an unsound graph, and
// surfaces as an error rather than silently planning over it.
func (e *Engine) parse(span obs.Span, sql string) (*qgm.Graph, error) {
	p := span.Child("parse")
	g, err := qgm.BuildSQL(sql, e.cat)
	p.End()
	if err != nil {
		return nil, compileError(err)
	}
	if e.verifyPlans {
		if verr := qgmcheck.AsError(qgmcheck.Check(g)); verr != nil {
			return nil, fmt.Errorf("astdb: built graph failed verification: %w", verr)
		}
	}
	return g, nil
}

// only returns the set restricted to the named summary tables, in
// registration order and on fresh slices (the whole published set when names
// is empty), or an error wrapping ErrUnknownTable for the first name that is
// not registered: a misspelt name must not read as "nothing to do".
func (s astSet) only(names []string) (astSet, error) {
	if len(names) == 0 {
		return s, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out astSet
	for i, ca := range s.asts {
		if want[ca.Def.Name] {
			out.asts = append(out.asts, ca)
			out.plans = append(out.plans, s.plans[i])
			delete(want, ca.Def.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			return astSet{}, fmt.Errorf("%w: no summary table %q", ErrUnknownTable, n)
		}
	}
	return out, nil
}

// runPlan executes one graph, converting a panic anywhere under the executor
// into an error so the fallback logic always gets control back.
func (e *Engine) runPlan(ctx context.Context, g *qgm.Graph) (r *exec.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, fmt.Errorf("astdb: execution panicked: %v", rec)
		}
	}()
	return e.exe.RunCtx(ctx, g, e.cfg)
}

// CreateTable registers a table in the catalog and creates its (empty)
// storage.
func (e *Engine) CreateTable(t *catalog.Table) error {
	if err := e.cat.AddTable(t); err != nil {
		return err
	}
	meta, _ := e.cat.Table(t.Name)
	e.store.Create(meta)
	return nil
}

// AddForeignKey records a referential-integrity constraint; the matcher uses
// it to prove extra joins lossless (§4.1.1 condition 1).
func (e *Engine) AddForeignKey(fk catalog.ForeignKey) error {
	return e.cat.AddForeignKey(fk)
}

// CreateSummaryTable compiles, registers, and materializes one summary table
// definition, returning the compiled AST and its materialized row count.
func (e *Engine) CreateSummaryTable(ctx context.Context, name, sql string) (*core.CompiledAST, int, error) {
	ctx, done, err := e.write(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	ca, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		return nil, 0, err
	}
	if err := e.cat.RegisterAST(catalog.ASTDef{Name: name, SQL: sql}); err != nil {
		return nil, 0, err
	}
	res, err := e.runPlan(ctx, ca.Graph)
	if err != nil {
		e.cat.UnregisterAST(name)
		return nil, 0, fmt.Errorf("astdb: materializing %s: %w", name, err)
	}
	e.store.Put(ca.Table, res.Rows)
	e.register(ca)
	return ca, len(res.Rows), nil
}

// Insert appends rows to a base table and refreshes every summary table whose
// definition reads it — incrementally where the maintenance plan allows, by
// full recomputation otherwise. Per-AST refresh failures are recorded in the
// returned Stats (the AST goes stale) and joined into the returned error. The
// batch is all-or-nothing: an unknown table (ErrUnknownTable), a row of the
// wrong arity or a value its column refuses (ErrParse) rejects it with nothing
// inserted and nothing refreshed.
func (e *Engine) Insert(ctx context.Context, table string, rows [][]sqltypes.Value) ([]maintain.Stats, error) {
	_, done, err := e.write(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	return e.insert(table, rows)
}

// insert is Insert for a caller that already is the writer.
func (e *Engine) insert(table string, rows [][]sqltypes.Value) ([]maintain.Stats, error) {
	meta, found := e.cat.Table(table)
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	if _, ok := e.store.Table(table); !ok {
		e.store.Create(meta)
	}
	stats, err := e.maint.ApplyInsert(e.set.Load().plans, table, rows)
	return stats, valueError(err)
}

// Refresh fully recomputes summary tables from the current base data: the
// named ones, or every registered one when names is empty. A failed refresh
// marks that AST stale and counts toward quarantine; failures are joined into
// the returned error and the Stats slice is always complete. A name that is
// no registered summary table is an error (ErrUnknownTable) and refreshes
// nothing.
func (e *Engine) Refresh(ctx context.Context, names ...string) ([]maintain.Stats, error) {
	if _, err := e.set.Load().only(names); err != nil {
		return nil, err
	}
	_, done, err := e.write(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	sel, _ := e.set.Load().only(names) // the set only grows: the names checked above are still in it
	var out []maintain.Stats
	var errs []error
	for _, p := range sel.plans {
		st, err := e.maint.RefreshFull(p)
		out = append(out, st)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// sortedByName orders compiled ASTs by name (for deterministic reporting).
func sortedByName(asts []*core.CompiledAST) []*core.CompiledAST {
	out := append([]*core.CompiledAST(nil), asts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}
