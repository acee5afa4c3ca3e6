// Package astdb is the unified facade over the Automatic Summary Table
// reproduction: one Engine value ties together the catalog, storage, the
// rewriter (matching §3–§6 of the paper), the executor, the plan cache, and
// incremental maintenance. A SELECT is answered by Query, through the plan
// cache, and described by Explain, which plans without it; a DML statement
// goes through ExecStatement (or ExecParsed, parsed) and a summary table is
// created by CreateSummaryTable and recomputed by Refresh.
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
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Re-exported pipeline types, so facade users need no internal imports.
type (
	// Config is the budget and the path of one engine run (row budget,
	// timeout, pipeline workers, reference interpreter).
	Config = exec.Config
	// Stats describes one AST maintenance action.
	Stats = maintain.Stats
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
	rw    *core.Rewriter
	maint *maintain.Maintainer
	obsv  *obs.Observer
	cfg   exec.Config
	cache *core.PlanCache

	// set is the one record of which summary tables exist: every reader and
	// every name check reads it (view), with one atomic load, and only
	// register publishes it, so engine bookkeeping never serializes
	// concurrent Query calls.
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
// each for maintenance. It also copies each signature into the catalog's
// index, a mirror no serving path reads (the rewriter prunes on
// CompiledAST.Sig).
func (e *Engine) register(asts ...*core.CompiledAST) {
	for _, ca := range asts {
		e.cat.SetASTSignature(ca.Def.Name, ca.Sig)
	}
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
	cfg      exec.Config
	cacheCap int // <= 0 = default size
	obsv     *obs.Observer
	coreOpts core.Options
}

// Option configures Open and Wrap.
type Option func(*settings)

// WithLimits sets the execution config (row budget, timeout, parallelism)
// applied to every query and materialization the engine runs.
func WithLimits(cfg exec.Config) Option { return func(c *settings) { c.cfg = cfg } }

// WithPlanCache sizes the rewrite plan cache: n > 0 sets the capacity, n <= 0
// keeps the default (core.DefaultPlanCacheSize). Every SELECT Query answers is
// planned through the cache; nothing turns it off.
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

// Open builds a fresh pipeline over the catalog, with an empty store and no
// summary tables: CreateSummaryTable is how one comes to exist. The error is
// always nil.
func Open(cat *catalog.Catalog, options ...Option) (*Engine, error) {
	c := settings{}
	for _, o := range options {
		o(&c)
	}
	return assemble(cat, storage.NewStore(), core.NewRewriter(cat, c.coreOpts), c), nil
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
	e := assemble(rw.Catalog(), exe.Store(), rw, c)
	e.register(asts...)
	return e
}

func assemble(cat *catalog.Catalog, store *storage.Store, rw *core.Rewriter, c settings) *Engine {
	e := &Engine{
		cat:   cat,
		store: store,
		rw:    rw,
		maint: maintain.New(store).WithCatalog(cat),
		cfg:   c.cfg,
		cache: core.NewPlanCache(c.cacheCap),

		writer: make(chan struct{}, 1),
	}
	if c.obsv != nil {
		e.obsv = c.obsv
		rw.SetObserver(c.obsv)
		cat.SetObserver(c.obsv)
		e.maint.WithObserver(c.obsv)
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store returns the engine's storage.
func (e *Engine) Store() *storage.Store { return e.store }

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

// write makes the caller the engine's one writer. Every mutating entry point —
// Insert, ExecStatement/ExecParsed, Refresh, CreateSummaryTable — starts here:
// it opens the "maintain" span and takes the writer slot, which the returned
// function gives back (and ends the span). Each of those is a
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

// Answer is the outcome of one resilient query: the executor's Output, whose
// chunks become rows only for a caller that asks (Rows, Result).
type Answer struct {
	exec.Output
	// Plan is the graph that produced the result: the rewritten plan when a
	// summary table served the query, the base plan otherwise.
	Plan *qgm.Graph
	// Rewrite carries the match details when the rewriter matched a summary
	// table; nil on base plans and on plan-cache hits (the match ran when the
	// plan was first cached).
	Rewrite *core.Result
	// ASTs names the summary tables the plan read, in splice order; empty
	// means base tables.
	ASTs []string
	// FellBack marks a query that was rewritten but answered from base tables
	// because executing the rewritten plan failed.
	FellBack bool
	// CacheHit reports that the plan came from the plan cache (no matching
	// ran).
	CacheHit bool
}

// Query answers one SQL query with graceful degradation, always through the
// plan cache: plan against the registered summary tables (every one estimated
// to pay) or reuse the plan cached for the statement's template, execute under
// the engine's limits, and fall back to the base plan — marking every summary
// table the plan read stale — if the rewritten plan fails. Only typed budget
// errors and base-plan failures are returned.
//
// The query reads one generation of the store (storage.Store.Pin): the plan
// cache's usable set, routing, cost sizing and every scan see the same tables
// and the same freshness, so a plan over several summary tables never mixes
// states a writer published one after the other.
func (e *Engine) Query(ctx context.Context, sql string) (*Answer, error) {
	span := e.startSpan(ctx, "query")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	set, st := e.view()
	cr, err := e.rw.RewriteSQLCached(ctx, e.cache, sql, set.asts, st)
	if err != nil {
		return nil, compileError(err)
	}
	r, err := e.runPlan(ctx, st, cr.Plan)
	if err == nil {
		return &Answer{Output: *r, Plan: cr.Plan, Rewrite: cr.Rewrite, ASTs: cr.ASTs, CacheHit: cr.Hit}, nil
	}
	// Budget exhaustion and cancellation surface typed: retrying on base
	// tables could only be slower.
	if len(cr.ASTs) == 0 || errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
		return nil, err
	}
	// The rewritten plan failed (e.g. a materialized table is unreadable).
	// Mark its summary tables stale — which also puts the cached plan out of
	// reach, its key being the usable set — and answer from base tables.
	e.markStale(cr.ASTs)
	base, berr := e.parse(span, sql)
	if berr != nil {
		return nil, err
	}
	r, err = e.runPlan(ctx, st, base)
	if err != nil {
		return nil, err
	}
	return &Answer{Output: *r, Plan: base, Rewrite: cr.Rewrite, FellBack: true, CacheHit: cr.Hit}, nil
}

// markStale marks every named summary table stale, in one publication: a
// failed rewritten plan cannot say which of the tables it read failed it. A
// table named twice is marked once. It does not wait for the writer slot: a
// statement in flight applies its own transitions on top of these when it
// publishes, so the marks survive unless it refreshes the table.
func (e *Engine) markStale(names []string) {
	var ts []catalog.Transition
	for i, n := range names {
		if !slices.Contains(names[:i], n) {
			ts = append(ts, e.cat.Stale(n))
		}
	}
	e.store.Apply(ts...)
}

// parse builds a graph from SQL under a "parse" child span, classifying
// failures under the typed error surface (ErrParse / ErrUnknownTable).
func (e *Engine) parse(span obs.Span, sql string) (*qgm.Graph, error) {
	p := span.Child("parse")
	g, err := qgm.BuildSQL(sql, e.cat)
	p.End()
	if err != nil {
		return nil, compileError(err)
	}
	return g, nil
}

// view is how every reader gets its summary tables and the generation it
// plans and runs on. The set is loaded before the store is pinned: a summary
// table is published only after its rows are committed (CreateSummaryTable),
// so every table in the set is in the pinned generation. Pinned first, a
// reader could plan on a table its generation lacks, sized at 0 rows, and
// fall back and mark it stale.
func (e *Engine) view() (astSet, *storage.Store) {
	set := e.set.Load()
	return set, e.store.Pin()
}

// index returns the position of the named summary table in the set, or -1.
// It folds case, as the catalog and the store do; every name check of the
// engine goes through it.
func (s astSet) index(name string) int {
	return slices.IndexFunc(s.asts, func(ca *core.CompiledAST) bool { return strings.EqualFold(ca.Def.Name, name) })
}

// only returns the set restricted to the named summary tables, in
// registration order and on fresh slices (the whole published set when names
// is empty), or an error wrapping ErrUnknownTable for the first name that is
// not registered: a misspelt name must not read as "nothing to do".
func (s astSet) only(names []string) (astSet, error) {
	if len(names) == 0 {
		return s, nil
	}
	keep := make([]bool, len(s.asts))
	for _, n := range names {
		i := s.index(n)
		if i < 0 {
			return astSet{}, fmt.Errorf("%w: no summary table %q", ErrUnknownTable, n)
		}
		keep[i] = true
	}
	var out astSet
	for i, k := range keep {
		if k {
			out.asts = append(out.asts, s.asts[i])
			out.plans = append(out.plans, s.plans[i])
		}
	}
	return out, nil
}

// runPlan executes one graph over the store st, converting a panic anywhere
// under the executor into an error so the fallback logic always gets control
// back.
func (e *Engine) runPlan(ctx context.Context, st *storage.Store, g *qgm.Graph) (r *exec.Output, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, fmt.Errorf("astdb: execution panicked: %v", rec)
		}
	}()
	exe := exec.NewEngine(st)
	exe.SetObserver(e.obsv)
	return exe.RunChunks(ctx, g, e.cfg)
}

// CreateTable registers a table in the catalog and creates its (empty)
// storage. A summary table's name is refused.
func (e *Engine) CreateTable(t *catalog.Table) error {
	if e.set.Load().index(t.Name) >= 0 {
		return fmt.Errorf("astdb: %q is a summary table", t.Name)
	}
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

// CreateSummaryTable is how a summary table comes to exist: it compiles one
// definition, materializes it and registers it, returning the compiled AST
// and its materialized row count. A name a summary table or a base table
// already has is refused, and so is a definition that does not compile or
// materialize; each refusal leaves every summary table as it was.
func (e *Engine) CreateSummaryTable(ctx context.Context, name, sql string) (*core.CompiledAST, int, error) {
	ctx, done, err := e.write(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	if e.set.Load().index(name) >= 0 {
		return nil, 0, fmt.Errorf("astdb: summary table %q already exists", name)
	}
	if _, ok := e.cat.Table(name); ok {
		return nil, 0, fmt.Errorf("astdb: %q is a base table", name)
	}
	ca, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		return nil, 0, err
	}
	res, err := e.runPlan(ctx, e.store.Pin(), ca.Graph)
	if err != nil {
		return nil, 0, fmt.Errorf("astdb: materializing %s: %w", name, err)
	}
	// Chunks first, then the set: a reader loads the set before it pins the
	// store (view), so a table it finds in the set is in its generation.
	e.store.Put(ca.Table, res.Chunks())
	e.register(ca)
	return ca, res.Len(), nil
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
	return e.maint.Refresh(sel.plans)
}

// sortedByName orders compiled ASTs by name (for deterministic reporting).
func sortedByName(asts []*core.CompiledAST) []*core.CompiledAST {
	out := append([]*core.CompiledAST(nil), asts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}
