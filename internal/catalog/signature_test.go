package catalog

import (
	"testing"

	"repro/internal/sqltypes"
)

func sigCatalog(t *testing.T) (*Catalog, *Signature) {
	t.Helper()
	c := attached()
	c.MustAddTable(&Table{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindInt},
		},
		PrimaryKey: []string{"id"},
	})
	id, ok := c.TableID("t")
	if !ok {
		t.Fatal("table t has no ID")
	}
	sig := &Signature{}
	sig.Tables.Add(id)
	sig.Required.Add(id)
	return c, sig
}

// TestSignatureIndexStaleness: admission must track every status transition,
// so pruning never admits an AST that Usable would reject — and re-admits it
// as soon as Usable would.
func TestSignatureIndexStaleness(t *testing.T) {
	c, sig := sigCatalog(t)
	c.SetASTSignature("a1", sig)
	q := sig // identical signature: always structurally admissible

	// check asserts the index agrees with Usable at both allowStale settings.
	check := func(step string) {
		t.Helper()
		for _, allowStale := range []bool{false, true} {
			usable := c.Statuses().Usable("a1", allowStale)
			admits := c.AdmitsAST("a1", q, allowStale)
			if admits && !usable {
				t.Fatalf("%s: index admits an AST Usable(allowStale=%v) rejects", step, allowStale)
			}
			if usable && !admits {
				t.Fatalf("%s: index refuses a usable, structurally admissible AST (allowStale=%v)", step, allowStale)
			}
		}
	}

	check("fresh")
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("fresh AST must be admitted")
	}

	c.fresh.Apply(c.Stale("a1"))
	check("stale")
	if c.AdmitsAST("a1", q, false) {
		t.Fatal("stale AST must be pruned when staleness is not allowed")
	}
	if !c.AdmitsAST("a1", q, true) {
		t.Fatal("stale AST must be admitted when staleness is allowed")
	}

	c.fresh.Apply(c.Fresh("a1"))
	check("refreshed")
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("refreshed AST must be re-admitted")
	}

	for i := 0; i < DefaultQuarantineThreshold; i++ {
		c.fresh.Apply(c.Failed("a1"))
	}
	if !c.Status("a1").Quarantined {
		t.Fatal("AST should be quarantined after threshold failures")
	}
	check("quarantined")
	if c.AdmitsAST("a1", q, true) {
		t.Fatal("quarantined AST must be pruned even when staleness is allowed")
	}

	c.fresh.Apply(c.Fresh("a1"))
	check("recovered")
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("recovered AST must be re-admitted")
	}

	if _, ok := c.ASTSignature("a9"); ok || !c.AdmitsAST("a9", q, false) {
		t.Fatal("an AST without an index entry is always admitted")
	}
}

// TestSignatureIndexSeedsFromStatus: a signature inserted for an AST that is
// already stale or quarantined must not make it look fresh.
func TestSignatureIndexSeedsFromStatus(t *testing.T) {
	c, sig := sigCatalog(t)
	c.fresh.Apply(c.Stale("a2"))
	c.SetASTSignature("a2", sig)
	if c.AdmitsAST("a2", sig, false) {
		t.Fatal("signature inserted for an already-stale AST must start stale")
	}
	if !c.AdmitsAST("a2", sig, true) {
		t.Fatal("already-stale AST must still be admitted under allowStale")
	}
}
