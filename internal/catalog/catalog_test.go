package catalog

import (
	"testing"

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

func TestASTRegistry(t *testing.T) {
	c := twoTables(t)
	c.MustRegisterAST(ASTDef{Name: "A1", SQL: "select 1 from parent"})
	if err := c.RegisterAST(ASTDef{Name: "a1", SQL: "x"}); err == nil {
		t.Error("duplicate AST name accepted (case-insensitive)")
	}
	if len(c.ASTs()) != 1 {
		t.Fatalf("ASTs: %v", c.ASTs())
	}
	c.UnregisterAST("A1")
	if len(c.ASTs()) != 0 {
		t.Error("unregister failed")
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
	c := New()
	c.MustRegisterAST(ASTDef{Name: "a1", SQL: "select 1"})

	if st := c.Status("a1"); st != (ASTStatus{}) {
		t.Fatalf("fresh AST has non-zero status: %+v", st)
	}
	if !c.Usable("a1", false) {
		t.Fatal("never-refreshed AST should be usable")
	}

	c.MarkStale("A1") // case-insensitive
	if c.Usable("a1", false) {
		t.Fatal("stale AST usable with AllowStale=false")
	}
	if !c.Usable("a1", true) {
		t.Fatal("stale AST not usable with AllowStale=true")
	}

	c.MarkFresh("a1")
	st := c.Status("a1")
	if st.Stale || st.Epoch != 1 || st.Failures != 0 {
		t.Fatalf("after MarkFresh: %+v", st)
	}
	c.MarkFresh("a1")
	if got := c.Status("a1").Epoch; got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
}

func TestQuarantineCircuitBreaker(t *testing.T) {
	c := New()
	c.SetQuarantineThreshold(2)
	for i := 0; i < 1; i++ {
		st := c.RecordRefreshFailure("q")
		if st.Quarantined {
			t.Fatalf("quarantined after %d failures (threshold 2)", i+1)
		}
	}
	st := c.RecordRefreshFailure("q")
	if !st.Quarantined || st.Failures != 2 || !st.Stale {
		t.Fatalf("after threshold failures: %+v", st)
	}
	// Quarantine ignores AllowStale.
	if c.Usable("q", true) {
		t.Fatal("quarantined AST should never be usable")
	}
	// A successful refresh is the only way out.
	c.MarkFresh("q")
	st = c.Status("q")
	if st.Quarantined || st.Stale || st.Failures != 0 || st.Epoch != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if !c.Usable("q", false) {
		t.Fatal("recovered AST should be usable")
	}
}

func TestStatusConcurrentAccess(t *testing.T) {
	c := New()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				c.MarkStale("x")
				c.RecordRefreshFailure("x")
				c.MarkFresh("x")
				c.Usable("x", false)
				c.Status("x")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

func TestUnregisterASTClearsStatus(t *testing.T) {
	c := New()
	c.MustRegisterAST(ASTDef{Name: "gone", SQL: "select 1"})
	c.MarkStale("gone")
	c.UnregisterAST("gone")
	if st := c.Status("gone"); st.Stale {
		t.Fatalf("status survived unregister: %+v", st)
	}
}

// TestStatusIsAllocationFree pins the query path's freshness check — once per
// registered summary table per plan-cache lookup — at zero allocations.
func TestStatusIsAllocationFree(t *testing.T) {
	c := New()
	c.MarkFresh("a1")
	c.MarkStale("a2")
	if got := testing.AllocsPerRun(1000, func() {
		if c.Status("a1").Stale || !c.Status("a2").Stale || c.Status("absent").Epoch != 0 {
			t.Fatal("wrong status")
		}
	}); got != 0 {
		t.Fatalf("Status allocates %v per run, want 0", got)
	}
}
