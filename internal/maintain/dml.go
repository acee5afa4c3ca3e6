// The write path. INSERT, DELETE and UPDATE are one sequence (apply) over the
// chunks of two row sets: the rows leaving the base table and the rows
// entering it (an INSERT has only the second, a DELETE only the first, an
// UPDATE both). A summary table's two deltas are its definition evaluated on
// pins holding one set each as the table, and exec.MergeGroups folds them into
// the groups they touch: COUNT and SUM add and subtract, MIN and MAX take
// extremes (Gray et al.), a group retires when its COUNT(*) tracker reaches
// zero (Cohen & Nutt), and a group whose MIN or MAX (or nullable SUM) the
// leaving rows may have taken is recomputed from the post-mutation base
// tables, one query for all such groups.
//
// Never fresh and wrong: every merge is prepared before the base mutation and
// staged only after it (and after any scoped recompute) succeeds; every
// failure — delta evaluation, inconsistent tracker counts, injected faults,
// scoped recompute errors — falls back to a full recompute, whose own failure
// marks the AST stale and counts toward quarantine. The statement is built on
// a store pinned to the generation it started from and committed once at its
// end, so readers see the base change, every summary table it maintains and
// every freshness transition together or not at all.
package maintain

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// maxScopedGroups caps how many groups one scoped recompute will restrict the
// definition to; past it the refresh falls back to full. The cap bounds the
// size of the injected OR-of-keys predicate, a few tree nodes per key term
// built and checked per statement, not its evaluation: the executor probes a
// hash table of the keys, one lookup per row whatever their number.
const maxScopedGroups = 256

// ErrValue marks a statement rejected for a value its column refuses, or an
// INSERT row of the wrong arity: the statement's fault, checked before
// anything is mutated.
var ErrValue = errors.New("maintain: value does not fit its column")

// ApplyInsert appends rows to a base table and refreshes every AST whose
// definition reads it (incrementally where the plan allows); plans for ASTs
// not reading the table are skipped. Every cell is checked against its column
// as UPDATE's SET values are (coerceValue), and the batch is all-or-nothing: a
// row of the wrong arity or a value its column refuses rejects it before any
// merge is prepared or any row appended, and the rows land in one publication.
//
// Failures degrade per AST instead of aborting, as apply describes: the
// returned error joins the per-AST failures and the Stats slice is always
// complete.
func (m *Maintainer) ApplyInsert(plans []*Plan, table string, rows [][]sqltypes.Value) ([]Stats, error) {
	table = strings.ToLower(table)
	d := m.store.Pin()
	td, ok := d.Table(table)
	if !ok {
		return nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	cols := td.Meta.Columns
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("%w: row %d has %d values, table %s has %d columns",
				ErrValue, i, len(r), td.Meta.Name, len(cols))
		}
	}
	ins := storage.Chunked(len(cols), rows)
	for i, c := range ins {
		vecs := make([]sqltypes.Vec, len(cols))
		for j := range vecs {
			var err error
			if vecs[j], err = fitted(c.Col(j), cols[j]); err != nil {
				return nil, fmt.Errorf("maintain: INSERT: %w", err)
			}
		}
		ins[i] = storage.NewChunk(c.Len(), vecs)
	}
	return m.apply(d, plans, table, "maintain.incremental:", nil, storage.Changes{Add: ins})
}

// ApplyDelete removes the rows of dml's table matched by its predicate (3VL:
// only rows whose WHERE is True) and refreshes every AST reading the table —
// by count-tracked delta retirement where DeleteRouting allows, by full
// recomputation otherwise. It returns the number of rows deleted. A predicate
// evaluation error aborts before anything is mutated.
func (m *Maintainer) ApplyDelete(plans []*Plan, dml *qgm.DML) (int, []Stats, error) {
	return m.applyWhere(plans, dml, "maintain.delete:", false)
}

// ApplyUpdate rewrites the rows of dml's table matched by its predicate
// through its SET assignments (each assignment sees the row's pre-update
// values) and refreshes every AST reading the table; the incremental path
// applies the delete delta of the old rows and the insert delta of the new
// rows in one merge. It returns the number of rows updated. Any evaluation
// error — including a NULL assigned to a NOT NULL column, or a value of the
// wrong kind — aborts before anything is mutated.
func (m *Maintainer) ApplyUpdate(plans []*Plan, dml *qgm.DML) (int, []Stats, error) {
	return m.applyWhere(plans, dml, "maintain.update:", true)
}

// applyWhere finds the rows of dml's table where its WHERE is True on the
// executor's chunk kernels, as a SELECT would (exec.Filter), with the SET
// values of those rows beside them. The rows leaving the table are gathered
// from each chunk; for an UPDATE, the rows entering it are those with the SET
// columns replaced by their values, fitted to their columns. The base table
// is then rewritten copy-on-write (Store.Rewrite), so concurrent readers keep
// a consistent pre-mutation snapshot and every chunk the statement does not
// reach is shared.
func (m *Maintainer) applyWhere(plans []*Plan, dml *qgm.DML, site string, set bool) (int, []Stats, error) {
	table := strings.ToLower(dml.Table.Name)
	d := m.store.Pin()
	td, ok := d.Table(table)
	if !ok {
		return 0, nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	chunks, _ := td.SnapshotChunks()
	exprs := make([]qgm.Expr, len(dml.Sets))
	for i, s := range dml.Sets {
		exprs[i] = s.Expr
	}
	var del []*storage.Chunk
	var ch storage.Changes
	pos := &ch.Drop // the positions the statement reaches
	if set {
		pos = &ch.Set
	}
	var where []qgm.Expr // none: every row
	if dml.Where != nil {
		where = []qgm.Expr{dml.Where}
	}
	err := exec.Filter(dml.Q, chunks, nil, where, exprs, m.obsv, func(c *storage.Chunk, at int, sel []int32, vals []*sqltypes.Vec) error {
		out := c
		if len(sel) < c.Len() {
			out = storage.Gather(c, sel)[0]
		}
		for _, p := range sel {
			*pos = append(*pos, at+int(p))
		}
		if del = append(del, out); !set {
			return nil
		}
		cols := make([]sqltypes.Vec, out.Width())
		for j := range cols {
			cols[j] = *out.Col(j)
		}
		for i, s := range dml.Sets {
			var err error
			if cols[s.Col], err = fitted(vals[i], dml.Table.Columns[s.Col]); err != nil {
				return fmt.Errorf("SET %w", err)
			}
		}
		ch.With = append(ch.With, storage.NewChunk(out.Len(), cols))
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("maintain: %v: %w", dml.Kind, err)
	}
	if len(del) == 0 {
		return 0, nil, nil
	}
	stats, err := m.apply(d, plans, table, site, del, ch)
	return len(ch.Drop) + len(ch.Set), stats, err
}

// fitted is v's values fitted to col, in a vector of their own: copied as
// they are when they are of col's kind (NULLs where col allows them), else
// each cell of another kind through coerceValue.
func fitted(v *sqltypes.Vec, col catalog.Column) (out sqltypes.Vec, err error) {
	if !v.Generic() && (v.Kind() == col.Type || v.Kind() == sqltypes.KindNull) && (col.Nullable || !v.HasNulls()) {
		out.AppendVec(v, 0, v.Len())
		return out, nil
	}
	for i := range v.Len() {
		x := v.Value(i)
		if x.Kind() != col.Type {
			if x, err = coerceValue(x, col); err != nil {
				return out, fmt.Errorf("column %s: %w", col.Name, err)
			}
		}
		out.AppendValue(x)
	}
	return out, nil
}

// coerceValue conforms a value to its column, for INSERT's cells and UPDATE's
// SET values alike (fitted): NOT NULL is enforced, integers widen into float
// columns, and ISO strings and integer yyyymmdd values land in date columns
// when ParseDate's range check passes. Every error it returns is an ErrValue.
func coerceValue(v sqltypes.Value, col catalog.Column) (sqltypes.Value, error) {
	if v.IsNull() {
		if !col.Nullable {
			return v, fmt.Errorf("%w: NULL into NOT NULL column", ErrValue)
		}
		return v, nil
	}
	var err error
	switch {
	case v.Kind() == col.Type:
		return v, nil
	case col.Type == sqltypes.KindFloat && v.Kind() == sqltypes.KindInt:
		return sqltypes.NewFloat(v.Float()), nil
	case col.Type == sqltypes.KindDate && v.Kind() == sqltypes.KindString:
		v, err = sqltypes.ParseDate(v.Str())
	case col.Type == sqltypes.KindDate && v.Kind() == sqltypes.KindInt:
		n := v.Int()
		v, err = sqltypes.CheckedDate(int(n/10000), int((n/100)%100), int(n%100))
	default:
		err = fmt.Errorf("%v value into %v column", v.Kind(), col.Type)
	}
	if err != nil {
		return v, fmt.Errorf("%w: %w", ErrValue, err)
	}
	return v, nil
}

// apply is the one write sequence behind INSERT, DELETE and UPDATE, built on
// d, a store pinned to the generation the statement started from, over the
// chunks of the rows leaving table (del) and the base rewrite ch, whose set
// or appended chunks are the rows entering it (ins), each side put in a pin
// of d as table. For every plan reading table it prepares, against the
// pre-mutation tables, the merge of the statement's deltas — the definition
// over del subtracted, over ins added; then the base table is rewritten by
// ch; only then is each prepared merge completed (scoped recompute where
// MIN/MAX groups lost their extreme) and staged, and d is committed: one
// publication for the whole statement. A plan that does
// not route incrementally, an AST d holds stale or quarantined (its
// materialization is missing earlier deltas, and merging into it would
// launder that into freshness), and a prepared merge that fails at any point
// all take a full recompute over the post-mutation base instead. Only a
// successful refresh of either kind marks the AST fresh; a failed full
// recompute is recorded in that AST's Stats, marks it stale, and the remaining
// ASTs still refresh.
//
// A Maintainer has no lock of its own: two apply calls racing on one store
// lose base rows and publish merges of each other's pre-images. Callers
// serialize writers (astdb.Engine does, with its writer slot).
func (m *Maintainer) apply(d *storage.Store, plans []*Plan, table, site string, del []*storage.Chunk, ch storage.Changes) ([]Stats, error) {
	type job struct {
		p     *Plan
		mg    *exec.GroupMerge // nil = full recompute
		st    Stats
		start time.Time
	}
	var jobs []job
	var sides [2]*storage.Store
	for i, chunks := range [][]*storage.Chunk{del, slices.Concat(ch.With, ch.Add)} {
		if len(chunks) > 0 {
			sides[i] = d.Pin()
			sides[i].Put(d.MustTable(table).Meta, chunks)
		}
	}
	for _, p := range plans {
		if !p.baseTabs[table] {
			continue
		}
		j := job{p: p, start: time.Now()}
		route := p.InsertRouting
		if len(del) > 0 {
			route = p.DeleteRouting
		}
		if strat, _ := route(table); strat == Incremental && !m.staleOrQuarantined(d, p.Name()) {
			j.mg, _ = m.prepareMerge(d, p, site+p.Name(), sides, &j.st)
		}
		jobs = append(jobs, j)
	}

	if err := d.Rewrite(table, ch); err != nil {
		return nil, err
	}
	defer d.Commit()

	var out []Stats
	var errs []error
	for _, j := range jobs {
		if j.mg == nil || m.finish(d, j.p, j.mg, &j.st) != nil {
			st, err := m.refreshFull(d, j.p)
			st.Duration = time.Since(j.start)
			out = append(out, st)
			if err != nil {
				errs = append(errs, st.Err)
			}
			continue
		}
		st := j.st
		m.mark(d, m.cat.Fresh, st.AST)
		st.Duration = time.Since(j.start)
		out = append(out, st)
		m.obsv.Add("maintain.refresh.incremental", 1)
		if len(del) == 0 {
			m.obsv.Add("maintain.delta.rows", int64(st.DeltaRows))
		} else {
			m.obsv.Add("maintain.dml.deltas", int64(st.DeltaRows))
			m.obsv.Add("maintain.dml.retired", int64(st.Retired))
			m.obsv.Add("maintain.dml.scoped", int64(st.Scoped))
		}
		m.obsv.Observe("maintain.refresh.incremental", st.Duration)
	}
	return out, errors.Join(errs...)
}

// prepareMerge evaluates one AST's delete delta and insert delta, each on a
// pin of d with the table replaced by the statement's chunks (sides; nil for
// a side without rows) — every other table as it is; for a change to one
// table that is exactly Δ(join) — and merges both into a pending copy of the
// touched groups (exec.MergeGroups), counted in st. Panics are recovered into
// errors; on any error the caller falls back to full recomputation.
func (m *Maintainer) prepareMerge(d *storage.Store, p *Plan, site string, sides [2]*storage.Store, st *Stats) (mg *exec.GroupMerge, err error) {
	defer func() {
		if r := recover(); r != nil {
			mg, err = nil, fmt.Errorf("maintain: delta merge panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(site); err != nil {
		return nil, err
	}
	mat, ok := d.Table(p.Name())
	if !ok {
		return nil, fmt.Errorf("maintain: AST %q not materialized", p.Name())
	}
	*st = Stats{AST: p.Name(), Strategy: Incremental}
	var deltas [2][]*storage.Chunk
	for i, only := range sides {
		if only == nil {
			continue
		}
		out, err := exec.NewEngine(only).RunChunks(context.TODO(), p.AST.Graph, exec.Config{})
		if err != nil {
			return nil, fmt.Errorf("maintain: delta eval: %w", err)
		}
		deltas[i], st.DeltaRows = out.Chunks(), st.DeltaRows+out.Len()
	}
	stored, _ := mat.SnapshotChunks()
	spec := exec.MergeSpec{Aggs: p.aggs, Tracker: p.counterCol, Scoped: p.scopedCols}
	if mg, err = exec.MergeGroups(stored, deltas[0], deltas[1], spec); err != nil {
		return nil, fmt.Errorf("maintain: merging into %s: %w", p.Name(), err)
	}
	st.Merged, st.Added, st.Retired = mg.Merged, mg.Added, mg.Retired
	return mg, nil
}

// finish completes a prepared merge on d after the base mutation: the scoped
// recompute of the groups that need one, then one Rewrite of the touched
// groups, handed over as chunks.
func (m *Maintainer) finish(d *storage.Store, p *Plan, mg *exec.GroupMerge, st *Stats) error {
	if st.DeltaRows == 0 {
		return nil // nothing to fold in
	}
	if keys := mg.Scoped(); len(keys) > 0 {
		chunks, err := m.scopedRecompute(d, p, keys)
		if err == nil {
			err = mg.Splice(chunks)
		}
		if err != nil {
			return err
		}
		st.Scoped = len(keys)
	}
	return d.Rewrite(p.Name(), mg.Changes())
}

// scopedRecompute re-evaluates the AST definition over the post-mutation base
// tables of d for just the groups of keys (grouping-column values, in p's key
// order): their key equalities are injected into the lower box, in keys'
// order, and the plan is gated through qgmcheck before it runs.
func (m *Maintainer) scopedRecompute(d *storage.Store, p *Plan, keys [][]sqltypes.Value) ([]*storage.Chunk, error) {
	if err := faultinject.Hit("maintain.scoped:" + p.Name()); err != nil {
		return nil, err
	}
	if len(keys) > maxScopedGroups {
		return nil, fmt.Errorf("maintain: %d affected groups exceed the scoped-recompute cap (%d)", len(keys), maxScopedGroups)
	}
	clone := p.AST.Graph.Clone()
	lower := clone.Root.Quantifiers[0].Box.Child()
	var or qgm.Expr
	for _, key := range keys {
		var and qgm.Expr
		for j, v := range key {
			e := lower.Cols[p.keyLowerOrds[j]].Expr
			var c qgm.Expr = &qgm.IsNull{E: e}
			if !v.IsNull() {
				c = &qgm.Bin{Op: "=", L: e, R: qgm.NewConst(v)}
			}
			and = conj("AND", and, c)
		}
		or = conj("OR", or, and)
	}
	lower.Preds = append(lower.Preds, or)
	if err := qgmcheck.Structural(clone); err != nil {
		return nil, fmt.Errorf("maintain: scoped plan failed verification: %w", err)
	}
	out, err := m.engine(d).RunChunks(context.TODO(), clone, exec.Config{})
	if err != nil {
		return nil, fmt.Errorf("maintain: scoped recompute: %w", err)
	}
	return out.Chunks(), nil
}

// conj is l op r, or r alone when l is nil.
func conj(op string, l, r qgm.Expr) qgm.Expr {
	if l == nil {
		return r
	}
	return &qgm.Bin{Op: op, L: l, R: r}
}
