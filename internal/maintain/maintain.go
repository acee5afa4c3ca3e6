// Package maintain implements Automatic Summary Table maintenance — problem
// (c) of the paper's introduction ("maintaining the ASTs efficiently when the
// base tables are updated", citing Mumick, Quass & Mumick, SIGMOD 1997).
//
// Analyze classifies each summary table once, from its immutable definition
// graph, and the plan it derives is the only record of how the table is
// refreshed: no refresh re-derives or re-checks it. A definition is
// incrementally maintainable when it is a single block — one GROUP BY
// (simple, or grouping sets / rollup / cube over non-nullable grouping
// expressions, which merge per NULL-padded output row) over a join of base
// tables, no HAVING — and every output column is a plain grouping column or a
// COUNT, SUM, MIN or MAX. SELECT DISTINCT is the GROUP BY qgm.Build makes of
// it, so a DISTINCT over one block is such a definition and one over a
// grouping block is not. Such a table is refreshed by delta aggregation: the
// definition is evaluated over just the changed rows and the per-group result
// merged into the materialization. Deletes additionally need a COUNT(*)
// tracker column to retire emptied groups. Everything else — and any table
// referenced twice in a definition, where the single-table delta is unsound —
// is refreshed by full recomputation. The write path itself is in dml.go.
package maintain

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/storage"
)

// Strategy describes how an AST is refreshed.
type Strategy uint8

const (
	// Incremental merges per-group deltas.
	Incremental Strategy = iota
	// FullRecompute re-evaluates the definition.
	FullRecompute
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Incremental {
		return "incremental"
	}
	return "full"
}

// Plan is the per-AST maintenance plan produced by Analyze.
type Plan struct {
	AST      *core.CompiledAST
	Strategy Strategy
	Reason   string     // why full recomputation is needed, when it is
	aggs     []*qgm.Agg // per output column: its aggregate, nil for a grouping column
	keyCols  []int
	baseTabs map[string]bool // base tables the definition reads

	// Delete-path analysis (Cohen & Nutt): retirement needs a COUNT(*)
	// tracker, SUM subtracts only over non-nullable input, MIN/MAX force a
	// group-scoped recompute.
	delStrategy  Strategy
	delReason    string
	counterCol   int   // COUNT(*)-equivalent tracker column ordinal; -1 = none
	scopedCols   []int // columns recomputed per affected group after deletes
	keyLowerOrds []int // lower-box output ordinal per key column (scoped recompute)

	// multiRef marks base tables referenced by more than one quantifier in
	// the definition: the single-table overlay delta rule is unsound there
	// (Δ(R⋈R) ≠ ΔR⋈ΔR), for inserts and deletes alike.
	multiRef map[string]bool
}

// Name returns the AST's registered name.
func (p *Plan) Name() string { return p.AST.Def.Name }

// ReadsTable reports whether the definition reads the base table.
func (p *Plan) ReadsTable(table string) bool { return p.baseTabs[strings.ToLower(table)] }

// InsertRouting reports how an insert into table refreshes this AST and, for
// full recomputation, why.
func (p *Plan) InsertRouting(table string) (Strategy, string) {
	if p.Strategy != Incremental {
		return FullRecompute, p.Reason
	}
	if p.multiRef[strings.ToLower(table)] {
		return FullRecompute, "table referenced more than once in the definition: single-table delta is unsound for self-joins"
	}
	return Incremental, ""
}

// DeleteRouting reports how deleting (or updating, which is a delete plus an
// insert) rows of table refreshes this AST.
func (p *Plan) DeleteRouting(table string) (Strategy, string) {
	if s, reason := p.InsertRouting(table); s != Incremental {
		return FullRecompute, reason
	}
	if p.delStrategy != Incremental {
		return FullRecompute, p.delReason
	}
	return Incremental, ""
}

// Maintainer applies base-table changes and refreshes the materialized ASTs
// that read them. Refresh failures are per-AST, never fatal to the maintenance
// pass: a failed incremental refresh falls back to full recomputation, and a
// failed full recomputation marks the AST stale (counting toward its
// quarantine circuit breaker) while the remaining ASTs still refresh. Every
// call builds its changes on a store pinned to the generation it started from
// — the base rewrite, every merged or recomputed summary table and every
// freshness transition — and commits them in one publication at its end. A
// Maintainer is single-writer by contract: it does not serialize concurrent
// Apply/Refresh calls, its caller does.
type Maintainer struct {
	store *storage.Store
	cat   *catalog.Catalog // optional; enables freshness/quarantine tracking
	obsv  *obs.Observer    // nil = observability disabled
}

// New returns a maintainer over the store.
func New(store *storage.Store) *Maintainer {
	return &Maintainer{store: store}
}

// WithCatalog attaches the catalog whose per-AST freshness state this
// maintainer drives — successful refreshes bump the AST's epoch and clear
// staleness, failures mark it stale and feed the quarantine breaker — and
// makes the maintainer's store the place that freshness is published
// (catalog.SetFreshness). It returns m for chaining.
func (m *Maintainer) WithCatalog(cat *catalog.Catalog) *Maintainer {
	m.cat = cat
	cat.SetFreshness(m.store)
	return m
}

// WithObserver attaches an observer recording refresh counters, durations,
// and failure events; nil detaches. The engines the maintainer runs full and
// scoped recomputes on report to the same observer. It returns m for chaining.
func (m *Maintainer) WithObserver(o *obs.Observer) *Maintainer {
	m.obsv = o
	return m
}

// engine returns an executor over d that reports to the maintainer's
// observer.
func (m *Maintainer) engine(d *storage.Store) *exec.Engine {
	e := exec.NewEngine(d)
	e.SetObserver(m.obsv)
	return e
}

// mark stages an AST's freshness transition on d, when a catalog is attached.
func (m *Maintainer) mark(d *storage.Store, t func(string) catalog.Transition, name string) {
	if m.cat != nil {
		d.Apply(t(name))
	}
}

// staleOrQuarantined reports whether d's generation says the AST's
// materialization cannot be trusted. Merging deltas into untrusted contents
// would carry the corruption forward (and a fresh mark would then resurrect
// the AST with wrong data), so recovery must always be a full recompute.
func (m *Maintainer) staleOrQuarantined(d *storage.Store, name string) bool {
	st := d.Statuses().Status(name)
	return st.Stale || st.Quarantined
}

// Analyze classifies an AST as incrementally maintainable or not and builds
// its plan.
func (m *Maintainer) Analyze(ast *core.CompiledAST) *Plan {
	p := &Plan{AST: ast, Strategy: FullRecompute, delStrategy: FullRecompute,
		counterCol: -1, baseTabs: map[string]bool{}, multiRef: map[string]bool{}}
	p.delReason = "definition not incrementally maintainable"
	g := ast.Graph
	refs := map[string]int{}
	for _, b := range g.Boxes() {
		if b.Kind == qgm.BaseTableBox {
			p.baseTabs[strings.ToLower(b.Table.Name)] = true
		}
		for _, q := range b.Quantifiers {
			if q.Box.Kind == qgm.BaseTableBox {
				refs[strings.ToLower(q.Box.Table.Name)]++
			}
		}
	}
	for name, n := range refs {
		if n > 1 {
			p.multiRef[name] = true
		}
	}

	// Canonical single-block shape: top SELECT over GROUP BY over SELECT over
	// base tables only. qgm.Build makes every root a SELECT, reads a GROUP BY
	// through the only ForEach quantifier of the SELECT above it, gives every
	// GROUP BY a SELECT child that its grouping columns reference, and lowers
	// every aggregate to COUNT, SUM, MIN or MAX.
	root := g.Root
	var gb *qgm.Box
	for _, q := range root.Quantifiers {
		switch {
		case q.Kind == qgm.Scalar:
			p.Reason = "scalar subquery in definition"
			return p
		case q.Box.Kind == qgm.GroupByBox:
			gb = q.Box
		case q.Box.Kind != qgm.BaseTableBox:
			p.Reason = "nested block in definition"
			return p
		}
	}
	if gb == nil {
		p.Reason = "no aggregation (append-only refresh would need dedup tracking)"
		return p
	}
	if len(root.Preds) > 0 {
		p.Reason = "HAVING filters groups; deltas may resurrect filtered groups"
		return p
	}
	lower := gb.Child()
	for _, q := range lower.Quantifiers {
		if q.Kind == qgm.Scalar {
			p.Reason = "scalar subquery in definition"
			return p
		}
		if q.Box.Kind != qgm.BaseTableBox {
			p.Reason = "nested block in definition"
			return p
		}
	}
	// Supergroup (grouping sets / rollup / cube) definitions merge per output
	// row: the delta evaluation NULL-pads each cuboid the same way the
	// materialized table does, so the full grouping-key tuple (with NULL as a
	// distinct key value) aligns delta rows with their cuboid's rows. This
	// requires the grouped-out NULLs to be unambiguous, i.e. non-nullable
	// underlying grouping expressions — the same assumption §5 slicing makes.
	if !gb.IsSimpleGroupBy() {
		for _, col := range gb.GroupBy {
			cr := gb.Cols[col].Expr.(*qgm.ColRef)
			if _, nullable := qgm.InferType(cr.Q.Box.Cols[cr.Col].Expr); nullable {
				p.Reason = "supergroup over a nullable grouping expression: NULL padding is ambiguous"
				return p
			}
		}
	}

	// Every output column must be a plain reference to a GROUP BY output.
	p.aggs = make([]*qgm.Agg, len(root.Cols))
	for i, c := range root.Cols {
		cr, ok := c.Expr.(*qgm.ColRef)
		if !ok {
			p.Reason = fmt.Sprintf("output column %q is computed, not a plain reference", c.Name)
			return p
		}
		if gb.IsGroupCol(cr.Col) {
			p.keyCols = append(p.keyCols, i)
			continue
		}
		agg := gb.Cols[cr.Col].Expr.(*qgm.Agg)
		if agg.Distinct {
			p.Reason = "DISTINCT aggregate cannot be merged incrementally"
			return p
		}
		p.aggs[i] = agg
	}
	p.Strategy = Incremental
	p.analyzeDelete(gb)
	return p
}

// analyzeDelete classifies the plan's delete path. Retirement requires a
// COUNT(*)-equivalent tracker column (COUNT of a non-nullable expression
// counts exactly the group's rows); with one, COUNT columns and SUMs of
// non-nullable input subtract exactly, while MIN/MAX — and SUM over nullable
// input, whose subtraction cannot reproduce an all-remaining-NULL group —
// are recomputed scoped to the affected groups.
func (p *Plan) analyzeDelete(gb *qgm.Box) {
	nonNullableArg := func(a *qgm.Agg) bool {
		if a.Star {
			return true
		}
		_, nullable := qgm.InferType(a.Arg)
		return !nullable
	}
	for i, agg := range p.aggs {
		if agg == nil {
			continue
		}
		switch agg.Op {
		case "count":
			if p.counterCol < 0 && nonNullableArg(agg) {
				p.counterCol = i
			}
		case "sum":
			if !nonNullableArg(agg) {
				p.scopedCols = append(p.scopedCols, i)
			}
		case "min", "max":
			p.scopedCols = append(p.scopedCols, i)
		}
	}
	if p.counterCol < 0 {
		p.delReason = "no COUNT(*) tracker column to retire emptied groups"
		return
	}
	if len(p.scopedCols) > 0 {
		if !gb.IsSimpleGroupBy() {
			p.delReason = "supergroup with MIN/MAX (or nullable SUM): recompute cannot be scoped to cuboid groups"
			return
		}
		// A scoped recompute injects per-group key equalities into the lower
		// box, so it needs each grouping column's lower-box output ordinal.
		for _, kc := range p.keyCols {
			cr := p.AST.Graph.Root.Cols[kc].Expr.(*qgm.ColRef) // shape validated above
			p.keyLowerOrds = append(p.keyLowerOrds, gb.Cols[cr.Col].Expr.(*qgm.ColRef).Col)
		}
	}
	p.delStrategy = Incremental
	p.delReason = ""
}

// Stats reports one refresh.
type Stats struct {
	AST       string
	Strategy  Strategy
	DeltaRows int // AST-level delta groups (incremental) or full rows
	Merged    int // existing groups updated
	Added     int // new groups appended
	Retired   int // groups removed because their tracker count hit zero
	Scoped    int // groups restored by a group-scoped recompute (MIN/MAX)
	Duration  time.Duration
	Err       error // non-nil when this AST's refresh failed (it is now stale)
}

// String is the one-line account of a refresh that the shell and the wire
// protocol report. A full recompute counts the summary table's rows, an
// incremental refresh its delta groups.
func (s Stats) String() string {
	switch {
	case s.Err != nil:
		return fmt.Sprintf("degraded: summary table %s refresh failed (now stale): %v", s.AST, s.Err)
	case s.Strategy == FullRecompute:
		return fmt.Sprintf("refreshed summary table %s (full recompute, %d rows)", s.AST, s.DeltaRows)
	case s.Retired > 0 || s.Scoped > 0:
		return fmt.Sprintf("refreshed summary table %s (incremental, %d delta groups, %d group(s) retired, %d scope-recomputed)",
			s.AST, s.DeltaRows, s.Retired, s.Scoped)
	default:
		return fmt.Sprintf("refreshed summary table %s (incremental, %d delta groups)", s.AST, s.DeltaRows)
	}
}

// RefreshFull recomputes one AST from its definition over the current base
// tables. On success the AST's catalog status is marked fresh — a successful
// full recompute is the recovery path out of staleness and quarantine. On
// failure the AST is marked stale and the failure counts toward quarantine.
func (m *Maintainer) RefreshFull(p *Plan) (Stats, error) {
	out, _ := m.Refresh([]*Plan{p})
	return out[0], out[0].Err
}

// Refresh is RefreshFull of every plan, in order, committed in one
// publication. The Stats slice is always complete; failures are joined into
// the error.
func (m *Maintainer) Refresh(plans []*Plan) ([]Stats, error) {
	d := m.store.Pin()
	defer d.Commit()
	out := make([]Stats, 0, len(plans))
	var errs []error
	for _, p := range plans {
		st, err := m.refreshFull(d, p)
		out = append(out, st)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// refreshFull is RefreshFull on the pinned store d: it reads d's tables and
// stages the new materialization and the transition on d.
func (m *Maintainer) refreshFull(d *storage.Store, p *Plan) (Stats, error) {
	start := time.Now()
	st := Stats{AST: p.AST.Def.Name, Strategy: FullRecompute}
	out, err := m.evalDefinition(d, p, "maintain.full:"+p.AST.Def.Name)
	if err != nil {
		st.Err = fmt.Errorf("maintain: full refresh of %s: %w", p.AST.Def.Name, err)
		st.Duration = time.Since(start)
		m.mark(d, m.cat.Failed, p.AST.Def.Name)
		m.obsv.Add("maintain.refresh.failures", 1)
		if m.obsv.Enabled() {
			m.obsv.Emit("maintain.refresh_failure", st.Err.Error())
		}
		return st, st.Err
	}
	d.Put(p.AST.Table, out.Chunks())
	st.DeltaRows = out.Len()
	st.Duration = time.Since(start)
	m.mark(d, m.cat.Fresh, p.AST.Def.Name)
	m.obsv.Add("maintain.refresh.full", 1)
	m.obsv.Observe("maintain.refresh.full", st.Duration)
	return st, nil
}

// evalDefinition runs an AST's defining query over d with a fault-injection
// site and panic recovery, so one broken refresh cannot take down the
// maintenance pass.
func (m *Maintainer) evalDefinition(d *storage.Store, p *Plan, site string) (out *exec.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("refresh panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(site); err != nil {
		return nil, err
	}
	return m.engine(d).RunChunks(context.TODO(), p.AST.Graph, exec.Config{}) // the maintainer's signatures carry no context
}
