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
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
)

// maxScopedGroups caps how many groups one scoped recompute will restrict the
// definition to; past it the injected OR-of-keys predicate costs more than
// recomputing everything, so the refresh falls back to full.
const maxScopedGroups = 256

// ApplyInsert appends rows to a base table and refreshes every AST whose
// definition reads it (incrementally where the plan allows); plans for ASTs
// not reading the table are skipped. The batch is all-or-nothing: a row of the
// wrong arity rejects it before any merge is prepared or any row appended.
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
	for i, r := range rows {
		if len(r) != len(td.Meta.Columns) {
			return nil, fmt.Errorf("maintain: row %d has %d values, table %s has %d columns",
				i, len(r), td.Meta.Name, len(td.Meta.Columns))
		}
	}
	return m.apply(plans, table, "maintain.incremental:", nil, rows, func() {
		for _, r := range rows {
			td.MustInsert(r...) // arity, its only failure, was checked above
		}
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

// applyWhere walks a snapshot of dml's table once, splitting it by the WHERE
// into the rows the statement leaves alone and the rows it matches; matched
// rows are dropped, or with set rewritten through dml's assignments. The new
// base table replaces the old one in a single copy-on-write Put, so concurrent
// readers keep a consistent pre-mutation snapshot.
func (m *Maintainer) applyWhere(plans []*Plan, dml *qgm.DML, site string, set bool) (int, []Stats, error) {
	table := strings.ToLower(dml.Table.Name)
	td, ok := m.store.Table(table)
	if !ok {
		return 0, nil, fmt.Errorf("maintain: table %q not loaded", table)
	}
	snap := td.Snapshot()
	ev := exec.NewRowEvaluator(dml.Q)
	var oldRows, newRows [][]sqltypes.Value
	newBase := make([][]sqltypes.Value, 0, len(snap))
	for _, row := range snap {
		if dml.Where != nil {
			tri, err := ev.Pred(dml.Where, row)
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: %v WHERE: %w", dml.Kind, err)
			}
			if tri != sqltypes.True {
				newBase = append(newBase, row)
				continue
			}
		}
		oldRows = append(oldRows, row)
		if !set {
			continue
		}
		nr := append([]sqltypes.Value(nil), row...)
		for _, s := range dml.Sets {
			col := dml.Table.Columns[s.Col]
			v, err := ev.Scalar(s.Expr, row)
			if err == nil {
				v, err = coerceValue(v, col)
			}
			if err != nil {
				return 0, nil, fmt.Errorf("maintain: UPDATE SET %s: %w", col.Name, err)
			}
			nr[s.Col] = v
		}
		newRows = append(newRows, nr)
		newBase = append(newBase, nr)
	}
	if len(oldRows) == 0 {
		return 0, nil, nil
	}
	stats, err := m.apply(plans, table, site, oldRows, newRows, func() { m.store.Put(td.Meta, newBase) })
	return len(oldRows), stats, err
}

// coerceValue conforms an evaluated SET value to its column: NOT NULL is
// enforced, integers widen into float columns, and integer yyyymmdd values
// land in date columns.
func coerceValue(v sqltypes.Value, col catalog.Column) (sqltypes.Value, error) {
	if v.IsNull() {
		if !col.Nullable {
			return v, fmt.Errorf("NULL into NOT NULL column")
		}
		return v, nil
	}
	switch {
	case v.Kind() == col.Type:
		return v, nil
	case col.Type == sqltypes.KindFloat && v.Kind() == sqltypes.KindInt:
		return sqltypes.NewFloat(v.Float()), nil
	case col.Type == sqltypes.KindDate && v.Kind() == sqltypes.KindInt:
		n := v.Int()
		return sqltypes.NewDate(int(n/10000), int((n/100)%100), int(n%100)), nil
	default:
		return v, fmt.Errorf("%v value into %v column", v.Kind(), col.Type)
	}
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
func (m *Maintainer) apply(plans []*Plan, table, site string, oldRows, newRows [][]sqltypes.Value, mutate func()) ([]Stats, error) {
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

	mutate()

	var out []Stats
	var errs []error
	for _, j := range jobs {
		if j.pm == nil || m.scopedRecompute(j.p, j.pm) != nil {
			st, err := m.RefreshFull(j.p)
			st.Duration = time.Since(j.start)
			out = append(out, st)
			if err != nil {
				errs = append(errs, st.Err)
			}
			continue
		}
		st := j.pm.st
		if st.DeltaRows > 0 {
			m.store.Put(j.p.AST.Table, j.pm.rows)
		}
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

// pendingMerge is a prepared (but unpublished) post-statement materialization.
type pendingMerge struct {
	rows   [][]sqltypes.Value
	scoped map[string][]sqltypes.Value // group key → grouping-key values
	st     Stats
}

// groupKey renders a row's grouping-key columns into a map key.
func (p *Plan) groupKey(r []sqltypes.Value) string {
	var sb strings.Builder
	for _, k := range p.keyCols {
		sb.WriteString(r[k].GroupKey())
		sb.WriteByte(0)
	}
	return sb.String()
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
// into a copy of the current materialization; it is copy-on-write down to the
// row, so a reader holding the published table never sees a change. Retirement
// is strict: a delete delta for a group the materialization does not hold, or
// a tracker going negative, means the materialization and the base disagree —
// the merge is abandoned (full recompute) rather than published.
func (m *Maintainer) mergeDeltas(p *Plan, del, ins [][]sqltypes.Value) (*pendingMerge, error) {
	mat, ok := m.store.Table(p.Name())
	if !ok {
		return nil, fmt.Errorf("maintain: AST %q not materialized", p.Name())
	}
	pm := &pendingMerge{scoped: map[string][]sqltypes.Value{}}
	pm.st = Stats{AST: p.Name(), Strategy: Incremental, DeltaRows: len(del) + len(ins)}
	if pm.st.DeltaRows == 0 {
		return pm, nil // nothing to fold in; apply publishes nothing
	}
	snap := mat.Snapshot()
	merged := make([][]sqltypes.Value, len(snap), len(snap)+len(ins))
	copy(merged, snap)
	index := make(map[string]int, len(merged))
	for i, r := range merged {
		index[p.groupKey(r)] = i
	}
	scopedCol := make(map[int]bool, len(p.scopedCols))
	for _, c := range p.scopedCols {
		scopedCol[c] = true
	}
	dead := map[int]bool{}

	for _, d := range del {
		k := p.groupKey(d)
		i, ok := index[k]
		if !ok {
			return nil, fmt.Errorf("maintain: delete delta names a group %s does not hold", p.Name())
		}
		nr := append([]sqltypes.Value(nil), merged[i]...)
		oc, dc := nr[p.counterCol], d[p.counterCol]
		if oc.IsNull() || dc.IsNull() {
			return nil, fmt.Errorf("maintain: NULL tracker count in %s", p.Name())
		}
		n := oc.Int() - dc.Int()
		if n < 0 {
			return nil, fmt.Errorf("maintain: tracker count of %s went negative", p.Name())
		}
		if n == 0 {
			// Every row of the group left: retire it.
			dead[i] = true
			delete(index, k)
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
		nr[p.counterCol] = sqltypes.NewInt(n)
		if len(p.scopedCols) > 0 {
			kv := make([]sqltypes.Value, len(p.keyCols))
			for j, kc := range p.keyCols {
				kv[j] = nr[kc]
			}
			pm.scoped[k] = kv
		}
		merged[i] = nr
		pm.st.Merged++
	}
	for _, d := range ins {
		k := p.groupKey(d)
		if i, ok := index[k]; ok {
			// Insert-side merge is the ApplyInsert rule; scoped columns
			// are overwritten by the recompute below anyway.
			nr := append([]sqltypes.Value(nil), merged[i]...)
			if err := mergeRow(p, nr, d); err != nil {
				return nil, err
			}
			merged[i] = nr
			pm.st.Merged++
		} else {
			// New group (or one fully retired above and reborn from the
			// new rows alone — the insert delta is then its exact value).
			nr := append([]sqltypes.Value(nil), d...)
			merged = append(merged, nr)
			index[k] = len(merged) - 1
			pm.st.Added++
		}
	}
	if len(dead) > 0 {
		final := make([][]sqltypes.Value, 0, len(merged)-len(dead))
		for i, r := range merged {
			if !dead[i] {
				final = append(final, r)
			}
		}
		merged = final
	}
	pm.rows = merged
	return pm, nil
}

// scopedRecompute restores the MIN/MAX (and nullable-SUM) columns of the
// groups a delete touched: it re-evaluates the AST definition over the
// post-mutation base tables with the affected groups' key equalities injected
// into the lower box, then splices the recomputed rows into the pending
// materialization. The injected plan is gated through qgmcheck before it
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
		for j, ord := range p.keyLowerOrds {
			e := lower.Cols[ord].Expr
			var c qgm.Expr
			if pm.scoped[k][j].IsNull() {
				c = &qgm.IsNull{E: e}
			} else {
				c = &qgm.Bin{Op: "=", L: e, R: qgm.NewConst(pm.scoped[k][j])}
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
		byKey[p.groupKey(r)] = r
	}
	for i, r := range pm.rows {
		k := p.groupKey(r)
		if _, affected := pm.scoped[k]; !affected {
			continue
		}
		nr, ok := byKey[k]
		if !ok {
			// The tracker says rows remain but the recompute found none: the
			// materialization and base disagree.
			return fmt.Errorf("maintain: scoped recompute lost group in %s", p.Name())
		}
		pm.rows[i] = append([]sqltypes.Value(nil), nr...)
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
