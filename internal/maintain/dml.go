// The write path. INSERT, DELETE and UPDATE are one sequence (apply) over two
// row sets: the rows leaving the base table and the rows entering it. An
// INSERT has only the second, a DELETE only the first, an UPDATE both. Each
// summary table's delta is its definition evaluated over just those rows (on
// an overlay store), and one merge folds both in: the entering side adds —
// COUNT and SUM add, MIN and MAX take extremes (Gray et al.'s rule for
// distributive aggregates) — and the leaving side subtracts by count-tracked
// retirement, following Cohen & Nutt: COUNT and non-nullable SUM subtract
// exactly, a group is retired the moment its COUNT(*) tracker reaches zero,
// and MIN/MAX (and SUM over nullable input), which cannot be un-merged, are
// recomputed from the post-mutation base tables for just the groups that lost
// rows.
//
// Never fresh and wrong: every merge is prepared before the base mutation,
// published only after it (and after any scoped recompute) succeeds, and every
// failure — delta evaluation, inconsistent tracker counts, injected faults,
// scoped recompute errors — falls back to a full recompute, whose own failure
// marks the AST stale and counts toward quarantine.
package maintain

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
	td, ok := m.store.Table(table)
	if !ok {
		return nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	cols := td.Meta.Columns
	checked := make([][]sqltypes.Value, len(rows))
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("%w: row %d has %d values, table %s has %d columns",
				ErrValue, i, len(r), td.Meta.Name, len(cols))
		}
		checked[i] = make([]sqltypes.Value, len(r))
		for j, v := range r {
			var err error
			if checked[i][j], err = coerceValue(v, cols[j]); err != nil {
				return nil, fmt.Errorf("maintain: row %d, column %s: %w", i, cols[j].Name, err)
			}
		}
	}
	return m.apply(plans, table, "maintain.incremental:", nil, checked, func() error {
		return td.Rewrite(nil, checked)
	})
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

// applyWhere walks the chunks of dml's table once, through one reused row
// buffer, and records the positions its WHERE matches: each matched row is
// dropped, or with set rewritten through dml's assignments in place. The base
// table is then rewritten copy-on-write (TableData.Rewrite), so concurrent
// readers keep a consistent pre-mutation snapshot and every chunk the
// statement does not reach is shared.
func (m *Maintainer) applyWhere(plans []*Plan, dml *qgm.DML, site string, set bool) (int, []Stats, error) {
	table := strings.ToLower(dml.Table.Name)
	td, ok := m.store.Table(table)
	if !ok {
		return 0, nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	chunks, _ := td.SnapshotChunks()
	ev := exec.NewRowEvaluator(dml.Q)
	var oldRows, newRows [][]sqltypes.Value
	var edits []storage.Edit
	err := storage.EachRow(chunks, func(pos int, row []sqltypes.Value) error {
		if dml.Where != nil {
			if tri, err := ev.Pred(dml.Where, row); err != nil {
				return fmt.Errorf("maintain: %v WHERE: %w", dml.Kind, err)
			} else if tri != sqltypes.True {
				return nil
			}
		}
		old := slices.Clone(row)
		oldRows = append(oldRows, old)
		edit := storage.Edit{Pos: pos}
		if set {
			edit.Row = slices.Clone(old)
			for _, s := range dml.Sets {
				col := dml.Table.Columns[s.Col]
				v, err := ev.Scalar(s.Expr, old)
				if err == nil {
					v, err = coerceValue(v, col)
				}
				if err != nil {
					return fmt.Errorf("maintain: UPDATE SET %s: %w", col.Name, err)
				}
				edit.Row[s.Col] = v
			}
			newRows = append(newRows, edit.Row)
		}
		edits = append(edits, edit)
		return nil
	})
	if err != nil || len(oldRows) == 0 {
		return 0, nil, err
	}
	stats, err := m.apply(plans, table, site, oldRows, newRows, func() error { return td.Rewrite(edits, nil) })
	return len(oldRows), stats, err
}

// coerceValue conforms a value to its column, for INSERT's cells and UPDATE's
// SET values alike: NOT NULL is enforced, integers widen into float columns,
// and ISO strings and integer yyyymmdd values land in date columns when
// ParseDate's range check passes. Every error it returns is an ErrValue.
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

// apply is the one write sequence behind INSERT, DELETE and UPDATE. For every
// plan reading table it prepares, against the pre-mutation store, the merge of
// the statement's deltas — the definition over oldRows subtracted, over
// newRows added; then mutate changes the base table; only then is each
// prepared merge completed (scoped recompute where MIN/MAX groups lost rows)
// and published. A plan that does not route incrementally, an AST the catalog
// holds stale or quarantined (its materialization is missing earlier deltas,
// and merging into it would launder that into freshness), and a prepared merge
// that fails at any point all take a full recompute over the post-mutation
// base instead. Only a successful refresh of either kind marks the AST fresh;
// a failed full recompute is recorded in that AST's Stats, marks it stale, and
// the remaining ASTs still refresh.
//
// A Maintainer has no lock of its own: two apply calls racing on one store
// lose base rows and publish merges of each other's pre-images. Callers
// serialize writers (astdb.Engine does, with its writer slot).
func (m *Maintainer) apply(plans []*Plan, table, site string, oldRows, newRows [][]sqltypes.Value, mutate func() error) ([]Stats, error) {
	type job struct {
		p     *Plan
		pm    *pendingMerge // nil = full recompute
		start time.Time
	}
	var jobs []job
	for _, p := range plans {
		if !p.baseTabs[table] {
			continue
		}
		j := job{p: p, start: time.Now()}
		route := p.InsertRouting
		if len(oldRows) > 0 {
			route = p.DeleteRouting
		}
		if strat, _ := route(table); strat == Incremental && !m.staleOrQuarantined(p.Name()) {
			j.pm, _ = m.prepareMerge(p, table, site+p.Name(), oldRows, newRows)
		}
		jobs = append(jobs, j)
	}

	if err := mutate(); err != nil {
		return nil, err
	}

	var out []Stats
	var errs []error
	for _, j := range jobs {
		if j.pm == nil || m.scopedRecompute(j.p, j.pm) != nil || j.pm.mat.Rewrite(j.pm.edits, j.pm.added) != nil {
			st, err := m.RefreshFull(j.p)
			st.Duration = time.Since(j.start)
			out = append(out, st)
			if err != nil {
				errs = append(errs, st.Err)
			}
			continue
		}
		st := j.pm.st
		m.markFresh(st.AST)
		st.Duration = time.Since(j.start)
		out = append(out, st)
		m.obsv.Add("maintain.refresh.incremental", 1)
		if len(oldRows) == 0 {
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

// pendingMerge is a prepared (but unpublished) post-statement materialization:
// a copy of every group the deltas touch, by position — its merged row, or
// nil when it retires — and the groups they add.
type pendingMerge struct {
	mat    *storage.TableData
	edits  []storage.Edit     // in position order
	added  [][]sqltypes.Value // new groups, appended in order
	scoped map[string]int     // group key → its entry in edits, to recompute
	st     Stats
}

// groupKey appends the rendering of a row's grouping-key columns, a map key,
// to buf.
func (p *Plan) groupKey(buf []byte, r []sqltypes.Value) []byte {
	for _, k := range p.keyCols {
		buf = append(r[k].AppendGroupKey(buf), 0)
	}
	return buf
}

// prepareMerge evaluates one AST's delete delta (its definition over oldRows)
// and insert delta (over newRows) on overlay stores — the table replaced by
// just those rows, every other table as it is, nothing mutated; for a change
// to one table that is exactly Δ(join) — and merges both into a pending copy
// of the materialization. Panics are recovered into errors; on any error the
// caller falls back to full recomputation.
func (m *Maintainer) prepareMerge(p *Plan, table, site string, oldRows, newRows [][]sqltypes.Value) (pm *pendingMerge, err error) {
	defer func() {
		if r := recover(); r != nil {
			pm, err = nil, fmt.Errorf("maintain: delta merge panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(site); err != nil {
		return nil, err
	}
	if err := m.auditPlan(p); err != nil {
		return nil, err
	}
	td := m.store.MustTable(table)
	delta := func(rows [][]sqltypes.Value) ([][]sqltypes.Value, error) {
		if len(rows) == 0 {
			return nil, nil
		}
		res, err := m.run(exec.NewEngine(m.store.Overlay(table, td.Meta, rows)), p.AST.Graph)
		if err != nil {
			return nil, fmt.Errorf("maintain: delta eval: %w", err)
		}
		return res.Rows, nil
	}
	del, err := delta(oldRows)
	if err != nil {
		return nil, err
	}
	ins, err := delta(newRows)
	if err != nil {
		return nil, err
	}
	return m.mergeDeltas(p, del, ins)
}

// mergeDeltas folds a delete delta and an insert delta (either may be empty)
// into a pending rewrite of the current materialization. One walk over the
// table finds the groups the deltas name and copies just those rows, so a
// reader holding the published table never sees a change. Retirement is
// strict: a delete delta for a group the materialization does not hold, or a
// tracker going negative, means the materialization and the base disagree —
// the merge is abandoned (full recompute) rather than published.
func (m *Maintainer) mergeDeltas(p *Plan, del, ins [][]sqltypes.Value) (*pendingMerge, error) {
	mat, ok := m.store.Table(p.Name())
	if !ok {
		return nil, fmt.Errorf("maintain: AST %q not materialized", p.Name())
	}
	pm := &pendingMerge{mat: mat, scoped: map[string]int{}}
	pm.st = Stats{AST: p.Name(), Strategy: Incremental, DeltaRows: len(del) + len(ins)}
	if pm.st.DeltaRows == 0 {
		return pm, nil // nothing to fold in; the rewrite is empty
	}
	index := make(map[string]int, len(del)+len(ins)) // a delta's group key → its entry in pm.edits, -1 for none
	for _, d := range slices.Concat(del, ins) {
		index[string(p.groupKey(nil, d))] = -1
	}
	chunks, _ := mat.SnapshotChunks()
	var buf []byte
	_ = storage.EachRow(chunks, func(pos int, row []sqltypes.Value) error { // never fails: the callback returns nil
		if buf = p.groupKey(buf[:0], row); index[string(buf)] == -1 {
			index[string(buf)] = len(pm.edits)
			pm.edits = append(pm.edits, storage.Edit{Pos: pos, Row: slices.Clone(row)})
		}
		return nil
	})
	scopedCol := make(map[int]bool, len(p.scopedCols))
	for _, c := range p.scopedCols {
		scopedCol[c] = true
	}

	for _, d := range del {
		k := string(p.groupKey(nil, d))
		e := index[k]
		if e < 0 {
			return nil, fmt.Errorf("maintain: delete delta names a group %s does not hold", p.Name())
		}
		nr := pm.edits[e].Row
		oc, dc := nr[p.counterCol], d[p.counterCol]
		if oc.IsNull() || dc.IsNull() {
			return nil, fmt.Errorf("maintain: NULL tracker count in %s", p.Name())
		}
		left := oc.Int() - dc.Int()
		if left < 0 {
			return nil, fmt.Errorf("maintain: tracker count of %s went negative", p.Name())
		}
		if left == 0 {
			// Every row of the group left: retire it.
			pm.edits[e].Row, index[k] = nil, -1
			pm.st.Retired++
			continue
		}
		for ci, role := range p.roles {
			if role.key || ci == p.counterCol || scopedCol[ci] {
				continue
			}
			if d[ci].IsNull() {
				continue // the departed rows contributed nothing here
			}
			if nr[ci].IsNull() {
				return nil, fmt.Errorf("maintain: subtracting from NULL aggregate in %s", p.Name())
			}
			v, err := sqltypes.Sub(nr[ci], d[ci])
			if err != nil {
				return nil, fmt.Errorf("maintain: subtracting column %d: %w", ci, err)
			}
			nr[ci] = v
		}
		nr[p.counterCol] = sqltypes.NewInt(left)
		if len(p.scopedCols) > 0 {
			pm.scoped[k] = e
		}
		pm.st.Merged++
	}
	for _, d := range ins {
		k := string(p.groupKey(nil, d))
		if e := index[k]; e >= 0 {
			// Insert-side merge is the ApplyInsert rule; scoped columns
			// are overwritten by the recompute below anyway.
			if err := mergeRow(p, pm.edits[e].Row, d); err != nil {
				return nil, err
			}
			pm.st.Merged++
		} else {
			// New group (or one fully retired above and reborn from the
			// new rows alone — the insert delta is then its exact value).
			// An insert delta names each group once, so it is not indexed.
			pm.added = append(pm.added, slices.Clone(d))
			pm.st.Added++
		}
	}
	return pm, nil
}

// scopedRecompute restores the MIN/MAX (and nullable-SUM) columns of the
// groups a delete touched: it re-evaluates the AST definition over the
// post-mutation base tables with the affected groups' key equalities injected
// into the lower box, then splices the recomputed rows into the pending
// merge's copies of them. The injected plan is gated through qgmcheck before it
// runs. No-op when no group needs it.
func (m *Maintainer) scopedRecompute(p *Plan, pm *pendingMerge) error {
	if len(pm.scoped) == 0 {
		return nil
	}
	if err := faultinject.Hit("maintain.scoped:" + p.Name()); err != nil {
		return err
	}
	if len(pm.scoped) > maxScopedGroups {
		return fmt.Errorf("maintain: %d affected groups exceed the scoped-recompute cap (%d)", len(pm.scoped), maxScopedGroups)
	}
	clone := p.AST.Graph.Clone()
	gb := clone.Root.Quantifiers[0].Box
	lower := gb.Child()

	keys := make([]string, 0, len(pm.scoped))
	for k := range pm.scoped {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic predicate shape
	var or qgm.Expr
	for _, k := range keys {
		var and qgm.Expr
		r := pm.edits[pm.scoped[k]].Row
		for j, ord := range p.keyLowerOrds {
			e := lower.Cols[ord].Expr
			var c qgm.Expr
			if v := r[p.keyCols[j]]; v.IsNull() {
				c = &qgm.IsNull{E: e}
			} else {
				c = &qgm.Bin{Op: "=", L: e, R: qgm.NewConst(v)}
			}
			if and == nil {
				and = c
			} else {
				and = &qgm.Bin{Op: "AND", L: and, R: c}
			}
		}
		if or == nil {
			or = and
		} else {
			or = &qgm.Bin{Op: "OR", L: or, R: and}
		}
	}
	lower.Preds = append(lower.Preds, or)
	if err := qgmcheck.Structural(clone); err != nil {
		return fmt.Errorf("maintain: scoped plan failed verification: %w", err)
	}
	res, err := m.run(m.engine, clone)
	if err != nil {
		return fmt.Errorf("maintain: scoped recompute: %w", err)
	}
	byKey := make(map[string][]sqltypes.Value, len(res.Rows))
	for _, r := range res.Rows {
		byKey[string(p.groupKey(nil, r))] = r
	}
	for k, e := range pm.scoped {
		nr, ok := byKey[k]
		if !ok {
			// The tracker says rows remain but the recompute found none: the
			// materialization and base disagree.
			return fmt.Errorf("maintain: scoped recompute lost group in %s", p.Name())
		}
		pm.edits[e].Row = slices.Clone(nr)
	}
	pm.st.Scoped = len(pm.scoped)
	return nil
}

// mergeRow folds a delta group into an existing group in place.
func mergeRow(p *Plan, dst, delta []sqltypes.Value) error {
	for i, role := range p.roles {
		if role.key {
			continue
		}
		switch role.agg.Op {
		case "count", "sum":
			if delta[i].IsNull() {
				continue // SUM delta over all-NULL inputs adds nothing
			}
			if dst[i].IsNull() {
				dst[i] = delta[i]
				continue
			}
			v, err := sqltypes.Add(dst[i], delta[i])
			if err != nil {
				return fmt.Errorf("maintain: merging column %d: %w", i, err)
			}
			dst[i] = v
		case "min":
			dst[i] = extreme(dst[i], delta[i], true)
		case "max":
			dst[i] = extreme(dst[i], delta[i], false)
		}
	}
	return nil
}

func extreme(a, b sqltypes.Value, min bool) sqltypes.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	c, err := sqltypes.Compare(b, a)
	if err != nil {
		return a
	}
	if (min && c < 0) || (!min && c > 0) {
		return b
	}
	return a
}
