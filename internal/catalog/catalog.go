// Package catalog holds database metadata: table schemas, nullability,
// primary/unique keys, referential-integrity (foreign key) constraints, and
// the registry of Automatic Summary Tables (ASTs). The matching algorithm
// consults the catalog to prove extra-join losslessness (paper §4.1.1
// condition 1) and 1:N rejoin cardinality (paper §4.2.1).
package catalog

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

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

// ASTDef is a registered Automatic Summary Table: a name for the materialized
// result plus the defining query text. The rewriter builds its QGM graph on
// registration.
type ASTDef struct {
	Name string
	SQL  string
}

// Catalog is the metadata store. Schema mutation (AddTable, RegisterAST, …)
// is not safe for concurrent use; the read path (lookups) is safe once
// populated. AST freshness and the signature index are rcu generations: readers
// (Status, Usable, AdmitsAST, the plan cache's usable set) take one atomic load
// and no lock, so maintenance may mark ASTs stale or fresh while every
// concurrent query-path check stays contention-free.
type Catalog struct {
	tables   map[string]*Table
	tableIDs map[string]int // stable numeric IDs for signature bitmaps
	fks      []ForeignKey
	fkEdges  []fkEdge // fks as table IDs, for the signature index
	asts     []ASTDef

	// status is the current generation of every AST's freshness. Every
	// transition is one publication, so Status, Usable and AdmitsAST can never
	// disagree about a table.
	status          rcu.Cell[*Statuses]
	quarantineAfter atomic.Int64
	obsv            *obs.Observer // nil = observability disabled

	// sigs is the candidate-pruning signature index (signature.go), keyed
	// like status.
	sigs rcu.Map[string, *Signature]
}

// transition applies f to the named AST's status and publishes the result,
// returning it. Every freshness change goes through here.
func (c *Catalog) transition(name string, f func(*ASTStatus)) ASTStatus {
	name = strings.ToLower(name)
	var st ASTStatus
	c.status.Update(func(cur *Statuses) *Statuses {
		next := cur.draft()
		st = next.byName[name]
		f(&st)
		next.byName[name] = st
		return next
	})
	return st
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

// draft returns a private copy of the generation for a writer to modify and
// publish.
func (s *Statuses) draft() *Statuses {
	next := &Statuses{byName: map[string]ASTStatus{}}
	if s != nil {
		maps.Copy(next.byName, s.byName)
	}
	return next
}

// Statuses returns the current generation: one atomic load, no lock.
func (c *Catalog) Statuses() *Statuses { return c.status.Load() }

// DefaultQuarantineThreshold is the number of consecutive refresh failures
// after which an AST is quarantined (circuit broken) until a successful full
// recompute.
const DefaultQuarantineThreshold = 3

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{
		tables:   make(map[string]*Table),
		tableIDs: make(map[string]int),
	}
	c.quarantineAfter.Store(DefaultQuarantineThreshold)
	return c
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

// RegisterAST records an AST definition. The rewriter compiles the SQL when
// it needs the QGM graph; registration itself only checks for name clashes.
func (c *Catalog) RegisterAST(def ASTDef) error {
	def.Name = strings.ToLower(def.Name)
	for _, a := range c.asts {
		if a.Name == def.Name {
			return fmt.Errorf("catalog: AST %q already registered", def.Name)
		}
	}
	c.asts = append(c.asts, def)
	return nil
}

// MustRegisterAST is RegisterAST that panics on error.
func (c *Catalog) MustRegisterAST(def ASTDef) {
	if err := c.RegisterAST(def); err != nil {
		panic(err)
	}
}

// ASTs returns the registered AST definitions in registration order.
func (c *Catalog) ASTs() []ASTDef { return c.asts }

// UnregisterAST removes an AST definition by name.
func (c *Catalog) UnregisterAST(name string) {
	name = strings.ToLower(name)
	out := c.asts[:0]
	for _, a := range c.asts {
		if a.Name != name {
			out = append(out, a)
		}
	}
	c.asts = out
	c.status.Update(func(cur *Statuses) *Statuses {
		next := cur.draft()
		delete(next.byName, name)
		return next
	})
	c.sigs.Update(func(draft map[string]*Signature) { delete(draft, name) })
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

// SetQuarantineThreshold overrides the consecutive-failure count that trips
// the circuit breaker. n <= 0 restores the default.
func (c *Catalog) SetQuarantineThreshold(n int) {
	if n <= 0 {
		n = DefaultQuarantineThreshold
	}
	c.quarantineAfter.Store(int64(n))
}

// Status returns a copy of the AST's freshness state (zero value when the
// AST was never refreshed or marked), from the current generation: one atomic
// load, no lock.
func (c *Catalog) Status(name string) ASTStatus { return c.Statuses().Status(name) }

// MarkFresh records a successful refresh: bumps the epoch, clears staleness
// and quarantine, and resets the failure counter. A successful full
// recompute is the only way out of quarantine.
func (c *Catalog) MarkFresh(name string) {
	c.transition(name, func(st *ASTStatus) {
		st.Epoch++
		st.Stale = false
		st.Quarantined = false
		st.Failures = 0
	})
	c.obsv.Add("catalog.ast.fresh", 1)
	if c.obsv.Enabled() {
		c.obsv.Emit("catalog.fresh", name)
	}
}

// MarkStale flags the AST's materialization as out of date without counting
// a refresh failure (used when a read of the materialized table fails, or a
// base insert lands without the AST being refreshed).
func (c *Catalog) MarkStale(name string) {
	c.transition(name, func(st *ASTStatus) {
		st.Stale = true
	})
	c.obsv.Add("catalog.ast.stale", 1)
	if c.obsv.Enabled() {
		c.obsv.Emit("catalog.stale", name)
	}
}

// RecordRefreshFailure marks the AST stale, increments its consecutive
// failure count, and trips the quarantine breaker when the threshold is
// reached. It returns the updated status.
func (c *Catalog) RecordRefreshFailure(name string) ASTStatus {
	tripped := false
	out := c.transition(name, func(st *ASTStatus) {
		st.Stale = true
		st.Failures++
		if int64(st.Failures) >= c.quarantineAfter.Load() {
			tripped = !st.Quarantined
			st.Quarantined = true
		}
	})
	c.obsv.Add("catalog.ast.refresh_failures", 1)
	if tripped {
		c.obsv.Add("catalog.ast.quarantines", 1)
	}
	if c.obsv.Enabled() {
		c.obsv.Emit("catalog.refresh_failure", name)
		if tripped {
			c.obsv.Emit("catalog.quarantine", name)
		}
	}
	return out
}

// Usable is Statuses.Usable on the current generation. Lock-free (one atomic
// load), so per-candidate checks on the query path never serialize against
// maintenance transitions.
func (c *Catalog) Usable(name string, allowStale bool) bool {
	return c.Statuses().Usable(name, allowStale)
}
