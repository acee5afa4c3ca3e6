// Package exec runs QGM graphs over an in-memory storage.Store. It exists to
// (a) verify that every rewrite the matching algorithm produces is
// result-identical to the original query, and (b) measure the latency
// improvements that motivate Automatic Summary Tables.
//
// Boxes evaluate bottom-up with per-box memoization (QGM is a DAG — a shared
// box evaluates once); what a box evaluates to is a relation, held as column
// chunks, as rows, or both. There are two paths, and they share as little as
// the hash table (grouptable.go) and its aggregate folds.
//
// The engine is one chunk pipeline, a source feeding one of two sinks
// (source.go, vector.go, vecgroupby.go). The source of a SELECT box scans the
// chunks of its first ForEach child — a base table, or the relation of an
// evaluated child box — narrows them with selection-vector filters and, when
// the box joins, probes them against hash tables built from the equality
// predicates that tie every other child to the first (a star join). The sink
// is projection for a SELECT box and hash aggregation for a GROUP BY box,
// which also fuses a SELECT child into its source and evaluates each grouping
// set of its canonicalized supergroup. Both sinks emit chunks, so box
// boundaries carry vectors and rows exist only where someone asks for them.
// A box's chunks are spread over Config.Parallelism workers (default
// GOMAXPROCS) in contiguous ranges whose results are concatenated or merged in
// range order, so row order does not depend on the worker count
// (floating-point SUM may re-associate; see EqualResults tolerance).
//
// The row path (evalSelect below, evalGroupBy in groupby.go) is the reference,
// the definition the pipeline's answers are checked against, written to be
// read: serial, a row at a time, every expression walked by the tree
// interpreter (expr.go). It joins left to right — hash joins where equality predicates
// connect the next child to the joined prefix, nested loops otherwise —
// applies residual predicates under SQL three-valued logic, and computes a
// multidimensional GROUP BY as the union of its grouping sets, NULL-padding
// the grouped-out columns (paper §5). Config.Interpret runs a whole graph on
// it; otherwise it runs only the boxes whose shape the source declines, each
// counted under exec.vector.declined.<reason> (source.go lists the reasons).
package exec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Observability counter and histogram names reported by the engine. They are
// constant strings so instrumented hot paths stay allocation-free when the
// observer is disabled; the full taxonomy is documented in DESIGN.md §9.
const (
	CtrRuns            = "exec.runs"
	CtrRowsScanned     = "exec.rows.scanned"
	CtrRowsEmitted     = "exec.rows.emitted"
	CtrParallelOps     = "exec.parallel.ops"
	CtrParallelWorkers = "exec.parallel.workers"
	HistRun            = "exec.run"
)

// Result is the output of running a graph, flattened to rows.
type Result struct {
	Cols []string
	Rows [][]sqltypes.Value
	// Mode reports how the run evaluated: ModeVectorized when at least one
	// box ran on the chunk pipeline, ModeInterpreted when none did — under
	// Config.Interpret, or because every box declined. EXPLAIN surfaces it.
	Mode string
	// Declined holds one decline reason (the suffix of its
	// exec.vector.declined.<reason> counter) per box that ran on the
	// reference path although the run did not ask for it, in evaluation order.
	Declined []string
}

// Output is the output of running a graph as the run left it: the root
// relation, sealed chunks from the pipeline or rows from the reference path.
// Chunks and Rows derive the other form once, on one goroutine, and keep it.
type Output struct {
	Cols     []string
	Mode     string   // as in Result
	Declined []string // as in Result
	rel      *relation
}

// Len, Chunks and Rows read the output: its row count, chunks and rows.
func (o *Output) Len() int                 { return o.rel.n }
func (o *Output) Chunks() []*storage.Chunk { return o.rel.chunksOf(len(o.Cols)) }
func (o *Output) Rows() [][]sqltypes.Value { return o.rel.rowsOf() }

// Result flattens the output into a Result.
func (o *Output) Result() *Result {
	return &Result{Cols: o.Cols, Rows: o.Rows(), Mode: o.Mode, Declined: o.Declined}
}

// Engine runs QGM graphs against a store.
type Engine struct {
	store *storage.Store
	obsv  *obs.Observer // nil = observability disabled (the common case)
}

// NewEngine returns an engine over the store.
func NewEngine(store *storage.Store) *Engine {
	return &Engine{store: store}
}

// Store returns the storage the engine runs against.
func (e *Engine) Store() *storage.Store { return e.store }

// SetObserver attaches an observer; nil detaches. Not safe to call
// concurrently with runs.
func (e *Engine) SetObserver(o *obs.Observer) { e.obsv = o }

// Run evaluates the graph with no budget and returns its result.
func (e *Engine) Run(g *qgm.Graph) (*Result, error) {
	return e.RunCtx(context.Background(), g, Config{})
}

// runSpan opens the "exec" span for one run: nested under the span carried by
// ctx when there is one, a root span of the engine's own observer otherwise.
// Disabled on both ends it is the zero span and costs nothing.
func (e *Engine) runSpan(ctx context.Context) obs.Span {
	if parent := obs.SpanFromContext(ctx); parent.Enabled() {
		return parent.Child("exec")
	}
	return e.obsv.Start("exec")
}

// RunCtx is RunChunks flattened to rows.
func (e *Engine) RunCtx(ctx context.Context, g *qgm.Graph, lim Config) (*Result, error) {
	out, err := e.RunChunks(ctx, g, lim)
	if err != nil {
		return nil, err
	}
	return out.Result(), nil
}

// RunChunks evaluates the graph under a context and a resource budget. It
// returns an error wrapping ErrCanceled when the context (or Config.Timeout)
// expires mid-run and one wrapping ErrBudgetExceeded when the run
// materializes more than Config.MaxRows rows.
func (e *Engine) RunChunks(ctx context.Context, g *qgm.Graph, lim Config) (*Output, error) {
	span := e.runSpan(ctx)
	defer span.End()
	e.obsv.Add(CtrRuns, 1)
	began := e.obsv.Now()
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	bud := &runBudget{ctx: ctx, maxRows: int64(lim.MaxRows)}
	ev := &evaluator{
		store:     e.store,
		memo:      map[int]*relation{},
		bud:       bud,
		chg:       charger{b: bud},
		par:       lim.Parallelism,
		interpret: lim.Interpret,
		obsv:      e.obsv,
	}
	rel, err := ev.evalBox(g.Root)
	if err != nil {
		return nil, err
	}
	if err := ev.chg.flush(); err != nil {
		return nil, err
	}
	e.obsv.Add(CtrRowsEmitted, int64(rel.n))
	e.obsv.ObserveSince(HistRun, began)
	cols := make([]string, len(g.Root.Cols))
	for i, c := range g.Root.Cols {
		cols[i] = c.Name
	}
	mode := ModeInterpreted
	if ev.usedVector {
		mode = ModeVectorized
	}
	return &Output{Cols: cols, Mode: mode, Declined: ev.declined, rel: rel}, nil
}

type evaluator struct {
	store *storage.Store
	memo  map[int]*relation

	bud       *runBudget
	chg       charger // the main goroutine's charger; workers get their own
	par       int     // Config.Parallelism (0 = GOMAXPROCS)
	interpret bool    // Config.Interpret: every box on the reference path
	obsv      *obs.Observer

	// usedVector records that at least one box ran on the chunk pipeline
	// this run (set on the main goroutine only; reported via Result.Mode);
	// declined lists why the others did not (Result.Declined).
	usedVector bool
	declined   []string
}

// checkpoint charges n materialized rows against the shared budget and
// periodically polls the context (main-goroutine loops, the reference path's
// among them; pipeline workers use their own charger).
func (ev *evaluator) checkpoint(n int) error {
	return ev.chg.checkpoint(n)
}

// relation is what a box evaluates to and what the memo holds: the box's
// output as column chunks, as rows, or both. A base table is its frozen
// storage chunks, a pipeline box emits chunks (read-only from then on), the
// reference path emits rows. The other form is derived once, on the main
// goroutine, when a consumer asks: rows by a reference-path parent or a
// caller that flattens the Output, chunks by a pipeline parent of a declined
// box or a caller that reads the root's chunks (the server encodes them).
type relation struct {
	n      int
	chunks []*storage.Chunk
	rows   [][]sqltypes.Value
}

func chunkRelation(chunks []*storage.Chunk) *relation {
	rel := &relation{chunks: chunks}
	for _, c := range chunks {
		rel.n += c.Len()
	}
	return rel
}

func (r *relation) rowsOf() [][]sqltypes.Value {
	if r.rows == nil {
		r.rows = storage.Rows(r.chunks, r.n)
	}
	return r.rows
}

// chunksOf columnarizes a row-path box's rows for a pipeline parent. Row order
// is preserved, so chunk-order merging keeps the row path's group order.
func (r *relation) chunksOf(ncols int) []*storage.Chunk {
	if r.chunks == nil && r.n > 0 {
		w := storage.Writer{Cols: ncols, Left: r.n}
		for _, row := range r.rows {
			w.Add(row)
		}
		r.chunks = w.Seal()
	}
	return r.chunks
}

func (ev *evaluator) evalBox(b *qgm.Box) (*relation, error) {
	if rel, ok := ev.memo[b.ID]; ok {
		return rel, nil
	}
	if err := ev.chg.flush(); err != nil {
		return nil, err
	}
	var rel *relation // the pipeline leaves it nil when it declines the box
	var rows [][]sqltypes.Value
	var err error
	switch b.Kind {
	case qgm.BaseTableBox:
		var chunks []*storage.Chunk
		var n int
		if chunks, n, err = ev.store.ScanChunks(b.Table.Name); err == nil {
			rel = chunkRelation(chunks)
			ev.obsv.Add(CtrRowsScanned, int64(n))
			if err = ev.checkpoint(n); err == nil {
				// Poll unconditionally after a scan: a slow storage layer must
				// surface the deadline here, not rows later in a join loop.
				err = ev.chg.flush()
			}
		}
	case qgm.SelectBox:
		if !ev.interpret {
			rel, err = ev.evalSelectVec(b)
		}
		if rel == nil && err == nil {
			rows, err = ev.evalSelect(b)
		}
	case qgm.GroupByBox:
		if !ev.interpret {
			rel, err = ev.evalGroupByVec(b)
		}
		if rel == nil && err == nil {
			rows, err = ev.evalGroupBy(b)
		}
	default:
		err = fmt.Errorf("exec: unsupported box kind %v", b.Kind)
	}
	if err != nil {
		return nil, err
	}
	if rel == nil {
		rel = &relation{n: len(rows), rows: rows}
	}
	ev.memo[b.ID] = rel
	return rel, nil
}

// scalarValue evaluates a scalar-subquery box: NULL when it returns no row,
// the value when it returns one, an error when it returns more.
func (ev *evaluator) scalarValue(b *qgm.Box) (sqltypes.Value, error) {
	rel, err := ev.evalBox(b)
	if err != nil {
		return sqltypes.Null, err
	}
	switch rel.n {
	case 0:
		return sqltypes.Null, nil
	case 1:
		return rel.rowsOf()[0][0], nil
	}
	return sqltypes.Null, fmt.Errorf("exec: scalar subquery returned %d rows", rel.n)
}

// binding is the joined tuple so far: the current row of each joined ForEach
// quantifier, indexed by the join slot the quantifier was assigned when it
// entered the join (exprCtx maps quantifier IDs to slots, replacing the old
// per-lookup linear scan).
type binding [][]sqltypes.Value

func (ev *evaluator) evalSelect(b *qgm.Box) ([][]sqltypes.Value, error) {
	var forEach []*qgm.Quantifier
	scalars := map[int]sqltypes.Value{}
	for _, q := range b.Quantifiers {
		switch q.Kind {
		case qgm.ForEach:
			forEach = append(forEach, q)
		case qgm.Scalar:
			v, err := ev.scalarValue(q.Box)
			if err != nil {
				return nil, err
			}
			scalars[q.ID] = v
		}
	}

	ectx := &exprCtx{scalars: scalars}

	preds := b.Preds
	usedPred := make([]bool, len(preds))

	// Join children left to right; before each step, pick an unjoined child
	// connected to the current prefix by an equality predicate so it can be
	// hash-joined.
	var bindings []binding
	joined := map[int]bool{}
	if len(forEach) == 0 {
		bindings = []binding{{}}
	}

	remaining := append([]*qgm.Quantifier(nil), forEach...)
	for len(remaining) > 0 {
		// Choose next child: if nothing joined yet take the first; otherwise
		// prefer one with an available equality predicate to the prefix.
		nextIdx := 0
		var hashPreds []int
		if len(joined) > 0 {
			for ci, cand := range remaining {
				hp := hashablePreds(preds, usedPred, joined, cand.ID, scalars)
				if len(hp) > 0 {
					nextIdx = ci
					hashPreds = hp
					break
				}
			}
		}
		next := remaining[nextIdx]
		remaining = append(remaining[:nextIdx], remaining[nextIdx+1:]...)

		child, err := ev.evalBox(next.Box)
		if err != nil {
			return nil, err
		}
		childRows := child.rowsOf()
		slot := len(joined)
		ectx.setSlot(next.ID, slot)

		if len(joined) == 0 {
			// The first child's rows are the initial bindings; the filter
			// below applies the predicates over it alone.
			arena := bindArena{width: 1, expect: len(childRows)}
			bindings = make([]binding, len(childRows))
			for i, r := range childRows {
				bindings[i] = arena.next()
				bindings[i][0] = r
			}
		} else if len(hashPreds) > 0 {
			bindings, err = ev.hashJoin(bindings, next, slot, childRows, preds, hashPreds, ectx)
			if err != nil {
				return nil, err
			}
			for _, pi := range hashPreds {
				usedPred[pi] = true
			}
		} else {
			// Nested-loop cross join.
			out := make([]binding, 0, len(bindings)*max(1, len(childRows)))
			for _, bd := range bindings {
				for _, r := range childRows {
					if err := ev.checkpoint(1); err != nil {
						return nil, err
					}
					out = append(out, extend(bd, r))
				}
			}
			bindings = out
		}
		joined[next.ID] = true

		// Apply any now-evaluable unused predicates to prune early.
		bindings, err = ev.filter(bindings, preds, usedPred, joined, ectx, false)
		if err != nil {
			return nil, err
		}
	}

	// Apply all remaining predicates (including those with no quantifier refs).
	var err error
	bindings, err = ev.filter(bindings, preds, usedPred, joined, ectx, true)
	if err != nil {
		return nil, err
	}

	// One output row per surviving binding.
	out := make([][]sqltypes.Value, len(bindings))
	slab := rowSlab{width: len(b.Cols)}
	slab.reserve(len(bindings))
	for i, bd := range bindings {
		if err := ev.checkpoint(1); err != nil {
			return nil, err
		}
		out[i] = slab.next()
		for ci, c := range b.Cols {
			if out[i][ci], err = ectx.evalScalar(c.Expr, bd); err != nil {
				return nil, err
			}
		}
	}

	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

// extend returns a new binding with r appended at the next slot.
func extend(bd binding, r []sqltypes.Value) binding {
	nb := make(binding, len(bd)+1)
	copy(nb, bd)
	nb[len(bd)] = r
	return nb
}

// hashablePreds returns indices of unused equality predicates that connect
// candidate quantifier cand to the joined prefix: one side references only
// cand, the other only joined quantifiers (or scalars/constants).
func hashablePreds(preds []qgm.Expr, used []bool, joined map[int]bool, cand int, scalars map[int]sqltypes.Value) []int {
	var out []int
	for i, p := range preds {
		if used[i] {
			continue
		}
		bin, ok := p.(*qgm.Bin)
		if !ok || bin.Op != "=" {
			continue
		}
		lq := sideQuants(bin.L, scalars)
		rq := sideQuants(bin.R, scalars)
		if lq == nil || rq == nil {
			continue
		}
		onlyCand := func(qs map[int]bool) bool {
			return len(qs) == 1 && qs[cand]
		}
		allJoined := func(qs map[int]bool) bool {
			for q := range qs {
				if !joined[q] {
					return false
				}
			}
			return len(qs) > 0
		}
		if (onlyCand(lq) && allJoined(rq)) || (onlyCand(rq) && allJoined(lq)) {
			out = append(out, i)
		}
	}
	return out
}

// sideQuants collects the ForEach quantifier IDs referenced by e; scalar
// quantifiers are treated as constants. Returns nil if e contains an
// aggregate (not evaluable here).
func sideQuants(e qgm.Expr, scalars map[int]sqltypes.Value) map[int]bool {
	qs := map[int]bool{}
	bad := false
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		switch t := x.(type) {
		case *qgm.ColRef:
			if t.Q == nil {
				bad = true
				return false
			}
			if _, isScalar := scalars[t.Q.ID]; !isScalar {
				qs[t.Q.ID] = true
			}
		case *qgm.Agg:
			bad = true
			return false
		}
		return true
	})
	if bad {
		return nil
	}
	return qs
}

func (ev *evaluator) hashJoin(bindings []binding, next *qgm.Quantifier, slot int, childRows [][]sqltypes.Value, preds []qgm.Expr, hashPreds []int, ectx *exprCtx) ([]binding, error) {
	// Split each hash predicate into its prefix side and its child side.
	var prefixKeys, childKeys []qgm.Expr
	for _, pi := range hashPreds {
		bin := preds[pi].(*qgm.Bin)
		if lq := sideQuants(bin.L, ectx.scalars); len(lq) == 1 && lq[next.ID] {
			prefixKeys, childKeys = append(prefixKeys, bin.R), append(childKeys, bin.L)
		} else {
			prefixKeys, childKeys = append(prefixKeys, bin.L), append(childKeys, bin.R)
		}
	}

	// joinKey renders one side's key over a binding into buf; ok is false when
	// a key value is NULL (NULL join keys never match). Keys are the decimal
	// GroupKey, in the classes of KeyCell, which the pipeline's probe joins
	// on: 1 joins 1.0, and a NaN joins every NaN whatever its payload.
	var buf []byte
	joinKey := func(keys []qgm.Expr, bd binding) (ok bool, err error) {
		buf = buf[:0]
		for _, e := range keys {
			v, err := ectx.evalScalar(e, bd)
			if err != nil || v.IsNull() {
				return false, err
			}
			buf = v.AppendGroupKey(buf)
			buf = append(buf, 0)
		}
		return true, nil
	}

	// Build the hash table on the child's rows (a key string is only
	// allocated when it enters the table), then probe it with the prefix.
	table := make(map[string][][]sqltypes.Value, len(childRows))
	childBd := make(binding, slot+1)
	for _, r := range childRows {
		childBd[slot] = r
		ok, err := joinKey(childKeys, childBd)
		if err != nil {
			return nil, err
		}
		if ok {
			table[string(buf)] = append(table[string(buf)], r)
		}
	}

	arena := bindArena{width: slot + 1, expect: len(bindings)}
	out := make([]binding, 0, len(bindings))
	for _, bd := range bindings {
		ok, err := joinKey(prefixKeys, bd)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, r := range table[string(buf)] {
			if err := ev.checkpoint(1); err != nil {
				return nil, err
			}
			nb := arena.next()
			copy(nb, bd)
			nb[slot] = r
			out = append(out, nb)
		}
	}
	return out, nil
}

// bindArena hands out fixed-width bindings carved from block allocations,
// replacing one small slice allocation per join output row with one per
// arenaBlock rows. Carved bindings are capacity-capped, so growing one can
// never overwrite a neighbour. expect, the caller's guess at how many
// bindings it will carve, caps the first block: a three-row input does not
// pay for 1024 bindings.
type bindArena struct {
	width  int
	expect int
	free   [][]sqltypes.Value
}

const arenaBlock = 1024

func (a *bindArena) next() binding {
	if len(a.free) < a.width {
		n := arenaBlock
		if 0 < a.expect && a.expect < n {
			n = a.expect
		}
		a.expect = 0
		a.free = make([][]sqltypes.Value, a.width*n)
	}
	b := binding(a.free[:a.width:a.width])
	a.free = a.free[a.width:]
	return b
}

// applicablePreds returns the indices of unused predicates whose quantifier
// references are all joined. With final set, every unused predicate must be
// evaluable.
func applicablePreds(preds []qgm.Expr, used []bool, joined map[int]bool, ectx *exprCtx, final bool) ([]int, error) {
	var apply []int
	for i, p := range preds {
		if used[i] {
			continue
		}
		qs := sideQuants(p, ectx.scalars)
		evaluable := qs != nil
		if evaluable {
			for q := range qs {
				if !joined[q] {
					evaluable = false
					break
				}
			}
		}
		if evaluable {
			apply = append(apply, i)
		} else if final {
			return nil, fmt.Errorf("exec: predicate %s not evaluable", p.String())
		}
	}
	return apply, nil
}

// filter keeps the bindings on which every predicate whose quantifiers are all
// joined is True, compacting in place. With final set, all unused predicates
// must be evaluable and are applied.
func (ev *evaluator) filter(bindings []binding, preds []qgm.Expr, used []bool, joined map[int]bool, ectx *exprCtx, final bool) ([]binding, error) {
	apply, err := applicablePreds(preds, used, joined, ectx, final)
	if err != nil {
		return nil, err
	}
	for _, pi := range apply {
		used[pi] = true
	}
	out := bindings[:0]
rows:
	for _, bd := range bindings {
		if err := ev.checkpoint(0); err != nil {
			return nil, err
		}
		for _, pi := range apply {
			t, err := ectx.evalPred(preds[pi], bd)
			if err != nil {
				return nil, err
			}
			if t != sqltypes.True {
				continue rows
			}
		}
		out = append(out, bd)
	}
	return out, nil
}

func dedupeRows(rows [][]sqltypes.Value) [][]sqltypes.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendGroupKey(buf)
			buf = append(buf, 0)
		}
		if !seen[string(buf)] {
			seen[string(buf)] = true
			out = append(out, r)
		}
	}
	return out
}

// SortRows orders rows lexicographically (NULL first) for deterministic
// output; used by result comparison and experiment printing.
func SortRows(rows [][]sqltypes.Value) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			an, bn := a[k].IsNull(), b[k].IsNull()
			if an != bn {
				return an
			}
			if an {
				continue
			}
			c, err := sqltypes.Compare(a[k], b[k])
			if err != nil {
				ak, bk := a[k].GroupKey(), b[k].GroupKey()
				if ak != bk {
					return ak < bk
				}
				continue
			}
			if c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
}

// EqualResults compares two results as multisets of rows (column order must
// agree; row order is ignored). Floats compare with a small relative
// tolerance: re-aggregation legitimately reorders floating-point summation.
// It returns a description of the first difference, or "" when equal.
func EqualResults(a, b *Result) string {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Sprintf("column count differs: %d vs %d", len(a.Cols), len(b.Cols))
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row count differs: %d vs %d", len(a.Rows), len(b.Rows))
	}
	ra := append([][]sqltypes.Value(nil), a.Rows...)
	rb := append([][]sqltypes.Value(nil), b.Rows...)
	SortRows(ra)
	SortRows(rb)
	for i := range ra {
		if len(ra[i]) != len(rb[i]) {
			return fmt.Sprintf("row %d: arity differs", i)
		}
		for j := range ra[i] {
			if !valuesClose(ra[i][j], rb[i][j]) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, ra[i], rb[i])
			}
		}
	}
	return ""
}

// valuesClose is value equality with relative float tolerance.
func valuesClose(x, y sqltypes.Value) bool {
	if x.IsNull() || y.IsNull() {
		return x.IsNull() && y.IsNull()
	}
	if x.Kind() == sqltypes.KindFloat || y.Kind() == sqltypes.KindFloat {
		if !x.IsNumeric() || !y.IsNumeric() {
			return false
		}
		fx, fy := x.Float(), y.Float()
		return math.Abs(fx-fy) <= 1e-9*max(1, math.Abs(fx), math.Abs(fy))
	}
	return sqltypes.Identical(x, y)
}
