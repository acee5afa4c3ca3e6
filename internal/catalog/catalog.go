// Package catalog holds database metadata: table schemas, nullability,
// primary/unique keys and referential-integrity (foreign key) constraints.
// The matching algorithm consults the catalog to prove extra-join
// losslessness (paper §4.1.1 condition 1) and 1:N rejoin cardinality (paper
// §4.2.1). Which Automatic Summary Tables (ASTs) exist is not recorded here:
// the engine (astdb) keeps that set. An AST's freshness is defined here
// (Statuses, Transition) but lives in the store, in the same generation as
// the tables (storage.Store, attached with SetFreshness).
package catalog

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name     string
	Type     sqltypes.Kind
	Nullable bool
}

// Table describes a base table or a materialized AST's output table.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string   // empty when no PK
	UniqueKeys [][]string // additional unique constraints (PK not repeated)
}

// ColumnIndex returns the ordinal of a column by name, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the column metadata by name.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// HasUniqueKey reports whether the given set of columns contains a unique key
// of the table (primary or declared unique).
func (t *Table) HasUniqueKey(cols []string) bool {
	set := make(map[string]bool, len(cols))
	for _, c := range cols {
		set[c] = true
	}
	contains := func(key []string) bool {
		if len(key) == 0 {
			return false
		}
		for _, k := range key {
			if !set[k] {
				return false
			}
		}
		return true
	}
	if contains(t.PrimaryKey) {
		return true
	}
	for _, uk := range t.UniqueKeys {
		if contains(uk) {
			return true
		}
	}
	return false
}

// ForeignKey is a referential-integrity constraint: every (non-NULL)
// combination of ChildCols values in ChildTable appears in ParentCols of
// ParentTable, and ParentCols is a unique key of ParentTable.
type ForeignKey struct {
	ChildTable  string
	ChildCols   []string
	ParentTable string
	ParentCols  []string
}

// ASTDef is an Automatic Summary Table's definition: a name for the
// materialized result plus the defining query text, which the rewriter
// compiles into its QGM graph (core.Rewriter.CompileAST).
type ASTDef struct {
	Name string
	SQL  string
}

// Catalog is the metadata store. Schema mutation (AddTable, AddForeignKey, …)
// is not safe for concurrent use; the read path (lookups) is safe once
// populated. AST freshness is not kept here: it is part of the store's one
// generation (storage.Store, attached with SetFreshness), beside the tables it
// describes, so a reader checks a summary table's status and reads its rows in
// the same state. The catalog keeps the rules of freshness — the transitions
// and the quarantine threshold — and the signature index, an rcu.Map whose
// readers take one atomic load and no lock.
type Catalog struct {
	tables   map[string]*Table
	tableIDs map[string]int // stable numeric IDs for signature bitmaps
	fks      []ForeignKey
	fkEdges  []fkEdge // fks as table IDs, for the signature index

	fresh Freshness     // nil until a store is attached: every AST fresh
	obsv  *obs.Observer // nil = observability disabled

	// sigs mirrors each registered summary table's signature (signature.go),
	// keyed by lowercased name. No serving path reads it: the rewriter prunes
	// on core.CompiledAST.Sig.
	sigs rcu.Map[string, *Signature]
}

// Freshness is where a catalog's summary-table statuses are published: the
// store holding the materializations (storage.Store), so that a statement's
// table changes and its freshness transitions are one publication.
type Freshness interface {
	// Statuses returns the current generation.
	Statuses() *Statuses
	// Apply publishes the generation that follows under ts (or, on a
	// store pinned for a statement, stages them for the statement's one
	// publication).
	Apply(ts ...Transition)
}

// SetFreshness attaches the store whose generations carry this catalog's AST
// freshness. Attaching the store already attached does nothing, so it is safe
// beside concurrent readers; attach a different one before serving.
func (c *Catalog) SetFreshness(f Freshness) {
	if c.fresh != f {
		c.fresh = f
	}
}

// Statuses is one generation of every AST's freshness: a lowercased name maps
// to its status, an absent name has the zero status. A generation is never
// written once published, so its address identifies it — two loads that
// return one pointer saw one state — and anything derived from it (the plan
// cache's usable set) can be kept until the pointer changes. The nil
// generation is the one before any transition: every AST fresh at epoch 0.
type Statuses struct {
	byName map[string]ASTStatus
}

// Status returns the named AST's status in this generation.
func (s *Statuses) Status(name string) ASTStatus {
	if s == nil {
		return ASTStatus{}
	}
	return s.byName[strings.ToLower(name)]
}

// Usable reports whether the rewriter may route queries to the AST:
// quarantined ASTs never, stale ASTs only when the caller allows staleness.
func (s *Statuses) Usable(name string, allowStale bool) bool {
	st := s.Status(name)
	return !st.Quarantined && (allowStale || !st.Stale)
}

// Transition is one AST's status change (Catalog.Fresh, Stale, Failed). It is
// a value so that a writer can record it while it builds a statement's
// generation and apply it to whatever generation is current when the
// statement publishes.
type Transition struct {
	name string
	f    func(*ASTStatus)
}

// Next returns the generation that follows s under ts, applied in order; s
// itself when ts is empty.
func (s *Statuses) Next(ts []Transition) *Statuses {
	if len(ts) == 0 {
		return s
	}
	next := &Statuses{byName: map[string]ASTStatus{}}
	if s != nil {
		maps.Copy(next.byName, s.byName)
	}
	for _, t := range ts {
		st := next.byName[t.name]
		t.f(&st)
		next.byName[t.name] = st
	}
	return next
}

// Statuses returns the attached store's current generation: one atomic load,
// no lock.
func (c *Catalog) Statuses() *Statuses {
	if c.fresh == nil {
		return nil
	}
	return c.fresh.Statuses()
}

// DefaultQuarantineThreshold is the number of consecutive refresh failures
// after which an AST is quarantined (circuit broken) until a successful full
// recompute.
const DefaultQuarantineThreshold = 3

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		tableIDs: make(map[string]int),
	}
}

// AddTable registers a table schema. It returns an error on duplicate names
// or duplicate column names.
func (c *Catalog) AddTable(t *Table) error {
	name := strings.ToLower(t.Name)
	if _, ok := c.tables[name]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, col.Name)
		}
		seen[lc] = true
	}
	for _, k := range t.PrimaryKey {
		if !seen[strings.ToLower(k)] {
			return fmt.Errorf("catalog: table %q primary key references unknown column %q", t.Name, k)
		}
	}
	cp := *t
	cp.Name = name
	c.tables[name] = &cp
	if _, ok := c.tableIDs[name]; !ok {
		c.tableIDs[name] = len(c.tableIDs)
	}
	return nil
}

// MustAddTable is AddTable that panics on error.
func (c *Catalog) MustAddTable(t *Table) {
	if err := c.AddTable(t); err != nil {
		panic(err)
	}
}

// DropTable removes a table (used when re-materializing ASTs).
func (c *Catalog) DropTable(name string) {
	delete(c.tables, strings.ToLower(name))
}

// Table looks up a table by (case-insensitive) name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddForeignKey registers an RI constraint after validating that both sides
// exist and that the parent columns form a unique key.
func (c *Catalog) AddForeignKey(fk ForeignKey) error {
	fk.ChildTable = strings.ToLower(fk.ChildTable)
	fk.ParentTable = strings.ToLower(fk.ParentTable)
	child, ok := c.tables[fk.ChildTable]
	if !ok {
		return fmt.Errorf("catalog: FK child table %q not found", fk.ChildTable)
	}
	parent, ok := c.tables[fk.ParentTable]
	if !ok {
		return fmt.Errorf("catalog: FK parent table %q not found", fk.ParentTable)
	}
	if len(fk.ChildCols) != len(fk.ParentCols) || len(fk.ChildCols) == 0 {
		return fmt.Errorf("catalog: FK column lists must be equal-length and non-empty")
	}
	for i := range fk.ChildCols {
		fk.ChildCols[i] = strings.ToLower(fk.ChildCols[i])
		fk.ParentCols[i] = strings.ToLower(fk.ParentCols[i])
		if child.ColumnIndex(fk.ChildCols[i]) < 0 {
			return fmt.Errorf("catalog: FK child column %q not in %q", fk.ChildCols[i], fk.ChildTable)
		}
		if parent.ColumnIndex(fk.ParentCols[i]) < 0 {
			return fmt.Errorf("catalog: FK parent column %q not in %q", fk.ParentCols[i], fk.ParentTable)
		}
	}
	if !parent.HasUniqueKey(fk.ParentCols) {
		return fmt.Errorf("catalog: FK parent columns %v are not a unique key of %q", fk.ParentCols, fk.ParentTable)
	}
	c.fks = append(c.fks, fk)
	nonNull := true
	for _, cc := range fk.ChildCols {
		if col, ok := child.Column(cc); !ok || col.Nullable {
			nonNull = false
			break
		}
	}
	c.fkEdges = append(c.fkEdges, fkEdge{
		child:        c.tableIDs[fk.ChildTable],
		parent:       c.tableIDs[fk.ParentTable],
		nonNullChild: nonNull,
	})
	return nil
}

// MustAddForeignKey is AddForeignKey that panics on error.
func (c *Catalog) MustAddForeignKey(fk ForeignKey) {
	if err := c.AddForeignKey(fk); err != nil {
		panic(err)
	}
}

// ForeignKeys returns all registered RI constraints.
func (c *Catalog) ForeignKeys() []ForeignKey { return c.fks }

// LosslessJoin reports whether a join child→parent over the given column
// pairs is lossless for the child side, i.e. every child row joins with
// exactly one parent row. That requires an RI constraint covering exactly
// those column pairs with all child columns non-nullable.
//
// This implements the extra-join condition of paper §4.1.1 (condition 1).
func (c *Catalog) LosslessJoin(childTable string, childCols []string, parentTable string, parentCols []string) bool {
	childTable = strings.ToLower(childTable)
	parentTable = strings.ToLower(parentTable)
	child, ok := c.tables[childTable]
	if !ok {
		return false
	}
	for _, fk := range c.fks {
		if fk.ChildTable != childTable || fk.ParentTable != parentTable {
			continue
		}
		if !samePairs(fk.ChildCols, fk.ParentCols, childCols, parentCols) {
			continue
		}
		nonNull := true
		for _, cc := range fk.ChildCols {
			col, ok := child.Column(cc)
			if !ok || col.Nullable {
				nonNull = false
				break
			}
		}
		if nonNull {
			return true
		}
	}
	return false
}

func samePairs(aChild, aParent, bChild, bParent []string) bool {
	if len(aChild) != len(bChild) {
		return false
	}
	used := make([]bool, len(bChild))
outer:
	for i := range aChild {
		for j := range bChild {
			if !used[j] && aChild[i] == strings.ToLower(bChild[j]) && aParent[i] == strings.ToLower(bParent[j]) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// ASTStatus is the runtime freshness state of one AST. The zero value means
// "fresh, never refreshed": usable, epoch 0.
type ASTStatus struct {
	// Epoch counts successful refreshes; maintenance bumps it so readers can
	// detect that the materialization advanced.
	Epoch int64
	// Stale marks a materialization that no longer reflects the base tables
	// (a failed or partial refresh). The rewriter refuses stale ASTs unless
	// Options.AllowStale.
	Stale bool
	// Quarantined is the tripped circuit breaker: the AST saw too many
	// consecutive refresh failures and is excluded from rewriting until a
	// successful full recompute clears it.
	Quarantined bool
	// Failures counts consecutive refresh failures since the last success.
	Failures int
}

// SetObserver attaches an observer recording AST freshness transitions
// (fresh/stale/quarantine) as counters and sequenced events; nil detaches.
// Not safe to call concurrently with status updates.
func (c *Catalog) SetObserver(o *obs.Observer) { c.obsv = o }

// Status returns a copy of the AST's freshness state (zero value when the
// AST was never refreshed or marked), from the current generation: one atomic
// load, no lock.
func (c *Catalog) Status(name string) ASTStatus { return c.Statuses().Status(name) }

// Fresh is a successful refresh: it bumps the epoch and clears staleness,
// quarantine and the failure count. A successful full recompute is the only
// way out of quarantine. It is counted, not emitted: one per summary table
// per maintained statement would crowd the observer's bounded event log,
// evicting the rare events (a degradation) it keeps.
func (c *Catalog) Fresh(name string) Transition {
	return c.change(name, "catalog.ast.fresh", "", func(st *ASTStatus) {
		*st = ASTStatus{Epoch: st.Epoch + 1}
	})
}

// Stale flags the AST's materialization as out of date without counting a
// refresh failure (a read of the materialized table failed, or a base change
// landed without the AST being refreshed).
func (c *Catalog) Stale(name string) Transition {
	return c.change(name, "catalog.ast.stale", "catalog.stale", func(st *ASTStatus) { st.Stale = true })
}

// Failed is a failed refresh: it marks the AST stale, increments its
// consecutive failure count, and trips the quarantine breaker when the
// threshold is reached.
func (c *Catalog) Failed(name string) Transition {
	return c.change(name, "catalog.ast.refresh_failures", "catalog.refresh_failure", func(st *ASTStatus) {
		st.Stale, st.Failures = true, st.Failures+1
		if !st.Quarantined && st.Failures >= DefaultQuarantineThreshold {
			st.Quarantined = true
			c.obsv.Add("catalog.ast.quarantines", 1)
			if c.obsv.Enabled() {
				c.obsv.Emit("catalog.quarantine", name)
			}
		}
	})
}

// change is the Transition f of the named AST, counted under counter and
// emitted as event (unless "") when it is applied.
func (c *Catalog) change(name, counter, event string, f func(*ASTStatus)) Transition {
	return Transition{name: strings.ToLower(name), f: func(st *ASTStatus) {
		f(st)
		c.obsv.Add(counter, 1)
		if event != "" && c.obsv.Enabled() {
			c.obsv.Emit(event, name)
		}
	}}
}
