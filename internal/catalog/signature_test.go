package catalog

import (
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

func sigCatalog(t *testing.T) (*Catalog, *Signature) {
	t.Helper()
	c := New()
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
	c.MustRegisterAST(ASTDef{Name: "a1", SQL: "select id from t"})
	c.SetASTSignature("a1", sig)
	q := sig // identical signature: always structurally admissible

	// check asserts the index agrees with Usable at both allowStale settings.
	check := func(step string) {
		t.Helper()
		for _, allowStale := range []bool{false, true} {
			usable := c.Usable("a1", allowStale)
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

	c.MarkStale("a1")
	check("stale")
	if c.AdmitsAST("a1", q, false) {
		t.Fatal("stale AST must be pruned when staleness is not allowed")
	}
	if !c.AdmitsAST("a1", q, true) {
		t.Fatal("stale AST must be admitted when staleness is allowed")
	}

	c.MarkFresh("a1")
	check("refreshed")
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("refreshed AST must be re-admitted")
	}

	for i := 0; i < DefaultQuarantineThreshold; i++ {
		c.RecordRefreshFailure("a1")
	}
	if !c.Status("a1").Quarantined {
		t.Fatal("AST should be quarantined after threshold failures")
	}
	check("quarantined")
	if c.AdmitsAST("a1", q, true) {
		t.Fatal("quarantined AST must be pruned even when staleness is allowed")
	}

	c.MarkFresh("a1")
	check("recovered")
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("recovered AST must be re-admitted")
	}

	c.UnregisterAST("a1")
	if _, ok := c.ASTSignature("a1"); ok {
		t.Fatal("unregistering must drop the signature entry")
	}
	if !c.AdmitsAST("a1", q, false) {
		t.Fatal("an AST without an index entry is always admitted")
	}
}

// TestSignatureIndexSeedsFromStatus: a signature inserted for an AST that is
// already stale or quarantined must not make it look fresh.
func TestSignatureIndexSeedsFromStatus(t *testing.T) {
	c, sig := sigCatalog(t)
	c.MustRegisterAST(ASTDef{Name: "a2", SQL: "select id from t"})
	c.MarkStale("a2")
	c.SetASTSignature("a2", sig)
	if c.AdmitsAST("a2", sig, false) {
		t.Fatal("signature inserted for an already-stale AST must start stale")
	}
	if !c.AdmitsAST("a2", sig, true) {
		t.Fatal("already-stale AST must still be admitted under allowStale")
	}
}

// TestTransitionIsOnePublication: freshness lives in one place, so the moment
// MarkStale, RecordRefreshFailure or MarkFresh returns, Status, Usable and
// AdmitsAST all tell the new story — and a concurrent reader that sees the
// same Status before and after asking the other two never gets an answer that
// contradicts it (with freshness mirrored into the signature index, admission
// could lag a transition). Run under -race.
func TestTransitionIsOnePublication(t *testing.T) {
	c, sig := sigCatalog(t)
	c.MustRegisterAST(ASTDef{Name: "a1", SQL: "select id from t"})
	c.SetASTSignature("a1", sig)
	usable := func(st ASTStatus, allowStale bool) bool {
		return !st.Quarantined && (allowStale || !st.Stale)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, allowStale := range []bool{false, true} {
					before := c.Status("a1")
					u, a := c.Usable("a1", allowStale), c.AdmitsAST("a1", sig, allowStale)
					if after := c.Status("a1"); after != before {
						continue // a transition landed in between: nothing to compare
					}
					if want := usable(before, allowStale); u != want || a != want {
						t.Errorf("status %+v allowStale=%v: Usable=%v AdmitsAST=%v, want both %v",
							before, allowStale, u, a, want)
						return
					}
				}
			}
		}()
	}

	agree := func(step string, want ASTStatus) {
		t.Helper()
		if got := c.Status("a1"); got != want {
			t.Fatalf("%s: status %+v, want %+v", step, got, want)
		}
		for _, allowStale := range []bool{false, true} {
			w := usable(want, allowStale)
			if u, a := c.Usable("a1", allowStale), c.AdmitsAST("a1", sig, allowStale); u != w || a != w {
				t.Fatalf("%s allowStale=%v: Usable=%v AdmitsAST=%v, want both %v", step, allowStale, u, a, w)
			}
		}
	}
	for round := int64(0); round < 200; round++ {
		c.MarkStale("a1")
		agree("MarkStale", ASTStatus{Epoch: round, Stale: true})
		for f := 1; f <= DefaultQuarantineThreshold; f++ {
			got := c.RecordRefreshFailure("a1")
			agree("RecordRefreshFailure", ASTStatus{Epoch: round, Stale: true, Failures: f,
				Quarantined: f == DefaultQuarantineThreshold})
			if got != c.Status("a1") {
				t.Fatalf("RecordRefreshFailure returned %+v, published %+v", got, c.Status("a1"))
			}
		}
		c.MarkFresh("a1")
		agree("MarkFresh", ASTStatus{Epoch: round + 1})
	}
	close(stop)
	wg.Wait()
}
