package catalog

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rcu"
	"repro/internal/sqltypes"
)

func twoTables(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	c.MustAddTable(&Table{
		Name: "Parent",
		Columns: []Column{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "name", Type: sqltypes.KindString, Nullable: true},
		},
		PrimaryKey: []string{"id"},
	})
	c.MustAddTable(&Table{
		Name: "Child",
		Columns: []Column{
			{Name: "cid", Type: sqltypes.KindInt},
			{Name: "pid", Type: sqltypes.KindInt},
			{Name: "optpid", Type: sqltypes.KindInt, Nullable: true},
		},
		PrimaryKey: []string{"cid"},
	})
	return c
}

func TestTableLookupCaseInsensitive(t *testing.T) {
	c := twoTables(t)
	for _, name := range []string{"parent", "PARENT", "Parent"} {
		if _, ok := c.Table(name); !ok {
			t.Errorf("lookup %q failed", name)
		}
	}
	if _, ok := c.Table("missing"); ok {
		t.Error("missing table found")
	}
}

func TestAddTableValidation(t *testing.T) {
	c := twoTables(t)
	if err := c.AddTable(&Table{Name: "parent"}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := c.AddTable(&Table{
		Name:    "dup",
		Columns: []Column{{Name: "a"}, {Name: "A"}},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := c.AddTable(&Table{
		Name:       "badpk",
		Columns:    []Column{{Name: "a"}},
		PrimaryKey: []string{"nope"},
	}); err == nil {
		t.Error("bad primary key accepted")
	}
}

func TestColumnHelpers(t *testing.T) {
	c := twoTables(t)
	p, _ := c.Table("parent")
	if p.ColumnIndex("name") != 1 || p.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	col, ok := p.Column("id")
	if !ok || col.Type != sqltypes.KindInt {
		t.Error("Column lookup wrong")
	}
}

func TestHasUniqueKey(t *testing.T) {
	tb := &Table{
		Name:       "t",
		Columns:    []Column{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		PrimaryKey: []string{"a"},
		UniqueKeys: [][]string{{"b", "c"}},
	}
	if !tb.HasUniqueKey([]string{"a"}) {
		t.Error("pk not recognized")
	}
	if !tb.HasUniqueKey([]string{"a", "b"}) {
		t.Error("superset of pk not recognized")
	}
	if !tb.HasUniqueKey([]string{"c", "b"}) {
		t.Error("unique key order-insensitivity")
	}
	if tb.HasUniqueKey([]string{"b"}) {
		t.Error("partial unique key accepted")
	}
	if tb.HasUniqueKey(nil) {
		t.Error("empty set accepted")
	}
	if (&Table{Name: "nokey", Columns: []Column{{Name: "a"}}}).HasUniqueKey([]string{"a"}) {
		t.Error("table without keys claims uniqueness")
	}
}

func TestForeignKeyValidation(t *testing.T) {
	c := twoTables(t)
	good := ForeignKey{ChildTable: "child", ChildCols: []string{"pid"}, ParentTable: "parent", ParentCols: []string{"id"}}
	if err := c.AddForeignKey(good); err != nil {
		t.Fatalf("valid FK rejected: %v", err)
	}
	bad := []ForeignKey{
		{ChildTable: "nope", ChildCols: []string{"pid"}, ParentTable: "parent", ParentCols: []string{"id"}},
		{ChildTable: "child", ChildCols: []string{"pid"}, ParentTable: "nope", ParentCols: []string{"id"}},
		{ChildTable: "child", ChildCols: []string{"nope"}, ParentTable: "parent", ParentCols: []string{"id"}},
		{ChildTable: "child", ChildCols: []string{"pid"}, ParentTable: "parent", ParentCols: []string{"name"}}, // not unique
		{ChildTable: "child", ChildCols: []string{"pid", "cid"}, ParentTable: "parent", ParentCols: []string{"id"}},
		{ChildTable: "child", ChildCols: nil, ParentTable: "parent", ParentCols: nil},
	}
	for i, fk := range bad {
		if err := c.AddForeignKey(fk); err == nil {
			t.Errorf("bad FK %d accepted", i)
		}
	}
}

func TestLosslessJoin(t *testing.T) {
	c := twoTables(t)
	c.MustAddForeignKey(ForeignKey{ChildTable: "child", ChildCols: []string{"pid"}, ParentTable: "parent", ParentCols: []string{"id"}})
	c.MustAddForeignKey(ForeignKey{ChildTable: "child", ChildCols: []string{"optpid"}, ParentTable: "parent", ParentCols: []string{"id"}})

	if !c.LosslessJoin("child", []string{"pid"}, "parent", []string{"id"}) {
		t.Error("RI join with non-nullable FK must be lossless")
	}
	if c.LosslessJoin("child", []string{"optpid"}, "parent", []string{"id"}) {
		t.Error("nullable FK column cannot guarantee losslessness")
	}
	if c.LosslessJoin("child", []string{"cid"}, "parent", []string{"id"}) {
		t.Error("non-FK columns accepted")
	}
	if c.LosslessJoin("parent", []string{"id"}, "child", []string{"pid"}) {
		t.Error("reversed direction accepted")
	}
}

func TestTablesSorted(t *testing.T) {
	c := twoTables(t)
	names := c.Tables()
	if len(names) != 2 || names[0] != "child" || names[1] != "parent" {
		t.Fatalf("Tables() = %v", names)
	}
	c.DropTable("child")
	if len(c.Tables()) != 1 {
		t.Error("drop failed")
	}
}

func TestASTStatusLifecycle(t *testing.T) {
	c := attached()

	if st := c.Status("a1"); st != (ASTStatus{}) {
		t.Fatalf("fresh AST has non-zero status: %+v", st)
	}
	if !c.Statuses().Usable("a1", false) {
		t.Fatal("never-refreshed AST should be usable")
	}

	c.fresh.Apply(c.Stale("A1")) // case-insensitive
	if c.Statuses().Usable("a1", false) {
		t.Fatal("stale AST usable with AllowStale=false")
	}
	if !c.Statuses().Usable("a1", true) {
		t.Fatal("stale AST not usable with AllowStale=true")
	}

	c.fresh.Apply(c.Fresh("a1"))
	st := c.Status("a1")
	if st.Stale || st.Epoch != 1 || st.Failures != 0 {
		t.Fatalf("after Fresh: %+v", st)
	}
	c.fresh.Apply(c.Fresh("a1"))
	if got := c.Status("a1").Epoch; got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
}

// TestQuarantineCircuitBreaker also checks what the observer keeps: each
// failure and the quarantine are events, while a refresh — one per summary
// table per maintained statement — is only counted, so it cannot crowd the
// bounded event log.
func TestQuarantineCircuitBreaker(t *testing.T) {
	c, o := attached(), obs.New()
	c.SetObserver(o)
	for i := 1; i < DefaultQuarantineThreshold; i++ {
		c.fresh.Apply(c.Failed("q"))
		if c.Status("q").Quarantined {
			t.Fatalf("quarantined after %d failures (threshold %d)", i, DefaultQuarantineThreshold)
		}
	}
	c.fresh.Apply(c.Failed("q"))
	st := c.Status("q")
	if !st.Quarantined || st.Failures != DefaultQuarantineThreshold || !st.Stale {
		t.Fatalf("after threshold failures: %+v", st)
	}
	// Quarantine ignores AllowStale.
	if c.Statuses().Usable("q", true) {
		t.Fatal("quarantined AST should never be usable")
	}
	// A successful refresh is the only way out.
	c.fresh.Apply(c.Fresh("q"))
	st = c.Status("q")
	if st.Quarantined || st.Stale || st.Failures != 0 || st.Epoch != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if !c.Statuses().Usable("q", false) {
		t.Fatal("recovered AST should be usable")
	}
	kinds := map[string]int{}
	for _, ev := range o.Snapshot().Events {
		kinds[ev.Kind]++
	}
	if kinds["catalog.refresh_failure"] != DefaultQuarantineThreshold || kinds["catalog.quarantine"] != 1 || len(kinds) != 2 ||
		o.Counter("catalog.ast.fresh") != 1 {
		t.Fatalf("events %v, catalog.ast.fresh %d: want one per failure, one quarantine, and the refresh counted, not emitted",
			kinds, o.Counter("catalog.ast.fresh"))
	}
}

func TestStatusConcurrentAccess(t *testing.T) {
	c := attached()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				c.fresh.Apply(c.Stale("x"))
				c.fresh.Apply(c.Failed("x"))
				c.fresh.Apply(c.Fresh("x"))
				c.Statuses().Usable("x", false)
				c.Status("x")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

// TestStatusIsAllocationFree pins the query path's freshness check — once per
// registered summary table per plan-cache lookup — at zero allocations.
func TestStatusIsAllocationFree(t *testing.T) {
	c := attached()
	c.fresh.Apply(c.Fresh("a1"))
	c.fresh.Apply(c.Stale("a2"))
	if got := testing.AllocsPerRun(1000, func() {
		if c.Status("a1").Stale || !c.Status("a2").Stale || c.Status("absent").Epoch != 0 {
			t.Fatal("wrong status")
		}
	}); got != 0 {
		t.Fatalf("Status allocates %v per run, want 0", got)
	}
}

// published is the Freshness the catalog's own tests attach: the statuses in
// one rcu.Cell, as storage.Store keeps them beside the tables.
type published struct{ cell rcu.Cell[*Statuses] }

func (p *published) Statuses() *Statuses { return p.cell.Load() }

func (p *published) Apply(ts ...Transition) {
	p.cell.Update(func(cur *Statuses) *Statuses { return cur.Next(ts) })
}

// attached is a new catalog with a Freshness attached.
func attached() *Catalog {
	c := New()
	c.SetFreshness(&published{})
	return c
}
