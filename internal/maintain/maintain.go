// Package maintain implements Automatic Summary Table maintenance — problem
// (c) of the paper's introduction ("maintaining the ASTs efficiently when the
// base tables are updated", citing Mumick, Quass & Mumick, SIGMOD 1997).
//
// Analyze classifies each summary table once. A definition is incrementally
// maintainable when it is a single block — one GROUP BY (simple, or grouping
// sets / rollup / cube over non-nullable grouping expressions, which merge per
// NULL-padded output row) over a join of base tables, no HAVING, no DISTINCT —
// and every output column is a plain grouping column or a COUNT, SUM, MIN or
// MAX. Such a table is refreshed by delta aggregation: the definition is
// evaluated over just the changed rows and the per-group result merged into
// the materialization. Deletes additionally need a COUNT(*) tracker column to
// retire emptied groups. Everything else — and any table referenced twice in
// a definition, where the single-table delta is unsound — is refreshed by full
// recomputation. The write path itself is in dml.go.
package maintain

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
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

// colRole classifies one output column of a maintainable AST.
type colRole struct {
	key bool
	agg *qgm.Agg // non-nil for aggregate columns
}

// Plan is the per-AST maintenance plan produced by Analyze.
type Plan struct {
	AST      *core.CompiledAST
	Strategy Strategy
	Reason   string // why full recomputation is needed, when it is
	roles    []colRole
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
// failed full recomputation marks the AST stale in the attached catalog
// (counting toward its quarantine circuit breaker) while the remaining ASTs
// still refresh. A Maintainer is single-writer by contract: it does not
// serialize concurrent Apply/Refresh calls, its caller does.
type Maintainer struct {
	store  *storage.Store
	engine *exec.Engine
	cat    *catalog.Catalog // optional; enables freshness/quarantine tracking
	obsv   *obs.Observer    // nil = observability disabled
}

// New returns a maintainer over the store.
func New(store *storage.Store) *Maintainer {
	return &Maintainer{store: store, engine: exec.NewEngine(store)}
}

// WithCatalog attaches the catalog whose per-AST freshness state this
// maintainer drives: successful refreshes bump the AST's epoch and clear
// staleness, failures mark it stale and feed the quarantine breaker. It
// returns m for chaining.
func (m *Maintainer) WithCatalog(cat *catalog.Catalog) *Maintainer {
	m.cat = cat
	return m
}

// WithObserver attaches an observer recording refresh counters, durations,
// and failure events; nil detaches. The engine the maintainer runs full
// recomputes on reports to the same observer. It returns m for chaining.
func (m *Maintainer) WithObserver(o *obs.Observer) *Maintainer {
	m.obsv = o
	m.engine.SetObserver(o)
	return m
}

func (m *Maintainer) markFresh(name string) {
	if m.cat != nil {
		m.cat.MarkFresh(name)
	}
}

func (m *Maintainer) recordFailure(name string) {
	if m.cat != nil {
		m.cat.RecordRefreshFailure(name)
	}
}

// staleOrQuarantined reports whether the catalog says the AST's current
// materialization cannot be trusted. Merging deltas into untrusted contents
// would carry the corruption forward (and markFresh would then resurrect the
// AST with wrong data), so recovery must always be a full recompute.
func (m *Maintainer) staleOrQuarantined(name string) bool {
	if m.cat == nil {
		return false
	}
	st := m.cat.Status(name)
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
	// base tables only, or a single SELECT over base tables (no aggregation).
	root := g.Root
	if root.Kind != qgm.SelectBox {
		p.Reason = "root is not a SELECT box"
		return p
	}
	if root.Distinct {
		p.Reason = "DISTINCT output cannot be merged incrementally"
		return p
	}
	var gb *qgm.Box
	for _, q := range root.Quantifiers {
		if q.Kind == qgm.Scalar {
			p.Reason = "scalar subquery in definition"
			return p
		}
		if q.Box.Kind == qgm.GroupByBox {
			if gb != nil {
				p.Reason = "multiple GROUP BY children"
				return p
			}
			gb = q.Box
		} else if q.Box.Kind != qgm.BaseTableBox {
			p.Reason = "nested block in definition"
			return p
		}
	}
	if gb == nil {
		p.Reason = "no aggregation (append-only refresh would need dedup tracking)"
		return p
	}
	if len(root.Quantifiers) != 1 {
		p.Reason = "join above the GROUP BY"
		return p
	}
	if len(root.Preds) > 0 {
		p.Reason = "HAVING filters groups; deltas may resurrect filtered groups"
		return p
	}
	lower := gb.Child()
	if lower.Kind != qgm.SelectBox {
		p.Reason = "non-SELECT below GROUP BY"
		return p
	}
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
	p.roles = make([]colRole, len(root.Cols))
	for i, c := range root.Cols {
		cr, ok := c.Expr.(*qgm.ColRef)
		if !ok || cr.Q.Box != gb {
			p.Reason = fmt.Sprintf("output column %q is computed, not a plain reference", c.Name)
			return p
		}
		if gb.IsGroupCol(cr.Col) {
			p.roles[i] = colRole{key: true}
			p.keyCols = append(p.keyCols, i)
			continue
		}
		agg := gb.Cols[cr.Col].Expr.(*qgm.Agg)
		if agg.Distinct {
			p.Reason = "DISTINCT aggregate cannot be merged incrementally"
			return p
		}
		switch agg.Op {
		case "count", "sum", "min", "max":
			p.roles[i] = colRole{agg: agg}
		default:
			p.Reason = fmt.Sprintf("aggregate %q not mergeable", agg.Op)
			return p
		}
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
	for i, role := range p.roles {
		if role.key {
			continue
		}
		switch role.agg.Op {
		case "count":
			if p.counterCol < 0 && nonNullableArg(role.agg) {
				p.counterCol = i
			}
		case "sum":
			if !nonNullableArg(role.agg) {
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
			gcr, ok := gb.Cols[cr.Col].Expr.(*qgm.ColRef)
			if !ok {
				p.delReason = "grouping column is not a plain lower-box reference"
				return
			}
			p.keyLowerOrds = append(p.keyLowerOrds, gcr.Col)
		}
	}
	p.delStrategy = Incremental
	p.delReason = ""
}

// deltaProjection exposes the plan's derived ordinal tables for qgmcheck's
// delta-plan audit.
func (p *Plan) deltaProjection() qgmcheck.DeltaPlan {
	return qgmcheck.DeltaPlan{
		Graph:        p.AST.Graph,
		KeyCols:      p.keyCols,
		CounterCol:   p.counterCol,
		ScopedCols:   p.scopedCols,
		KeyLowerOrds: p.keyLowerOrds,
	}
}

// auditPlan gates an incremental refresh: a plan whose ordinal tables
// disagree with its definition graph would merge the wrong columns, so any
// violation turns into an error and the caller falls back to full
// recomputation (which does not consult the ordinals).
func (m *Maintainer) auditPlan(p *Plan) error {
	if vs := qgmcheck.CheckDeltaPlan(p.deltaProjection()); len(vs) > 0 {
		m.obsv.Add("maintain.plan.audit_failures", 1)
		return fmt.Errorf("maintain: plan for %s failed verification: %w", p.Name(), qgmcheck.AsError(vs))
	}
	return nil
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

// RefreshFull recomputes one AST from its definition over the current base
// tables. On success the AST's catalog status is marked fresh — a successful
// full recompute is the recovery path out of staleness and quarantine. On
// failure the AST is marked stale and the failure counts toward quarantine.
func (m *Maintainer) RefreshFull(p *Plan) (Stats, error) {
	start := time.Now()
	st := Stats{AST: p.AST.Def.Name, Strategy: FullRecompute}
	res, err := m.evalDefinition(p, "maintain.full:"+p.AST.Def.Name)
	if err != nil {
		st.Err = fmt.Errorf("maintain: full refresh of %s: %w", p.AST.Def.Name, err)
		st.Duration = time.Since(start)
		m.recordFailure(p.AST.Def.Name)
		m.obsv.Add("maintain.refresh.failures", 1)
		if m.obsv.Enabled() {
			m.obsv.Emit("maintain.refresh_failure", st.Err.Error())
		}
		return st, st.Err
	}
	m.store.Put(p.AST.Table, res.Rows)
	st.DeltaRows = len(res.Rows)
	st.Duration = time.Since(start)
	m.markFresh(p.AST.Def.Name)
	m.obsv.Add("maintain.refresh.full", 1)
	m.obsv.Observe("maintain.refresh.full", st.Duration)
	return st, nil
}

// evalDefinition runs an AST's defining query with a fault-injection site and
// panic recovery, so one broken refresh cannot take down the maintenance
// pass.
func (m *Maintainer) evalDefinition(p *Plan, site string) (res *exec.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("refresh panicked: %v", r)
		}
	}()
	if err := faultinject.Hit(site); err != nil {
		return nil, err
	}
	return m.run(m.engine, p.AST.Graph)
}

// run evaluates one maintenance graph — a definition, a delta over an overlay,
// a scoped recompute. A box of it that the chunk pipeline declines runs on the
// executor's serial reference path, whose speed nothing measures, so it is
// counted: the delta engine has no observer of its own to say so.
func (m *Maintainer) run(eng *exec.Engine, g *qgm.Graph) (*exec.Result, error) {
	res, err := eng.Run(g)
	if err == nil && len(res.Declined) > 0 {
		m.obsv.Add("maintain.exec.declined", int64(len(res.Declined)))
	}
	return res, err
}
