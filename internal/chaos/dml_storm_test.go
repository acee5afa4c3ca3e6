package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/maintain"
	"repro/internal/parser"
	"repro/internal/qgm"
)

func mustDeleteDML(t *testing.T, e *chaosEnv, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	dml, err := qgm.BuildDelete(stmt.(*parser.DeleteStmt), e.cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return dml
}

func mustUpdateDML(t *testing.T, e *chaosEnv, sql string) *qgm.DML {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	dml, err := qgm.BuildUpdate(stmt.(*parser.UpdateStmt), e.cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return dml
}

// assertNeverFreshAndWrong is the PR's acceptance property: after any storm
// round, every AST is either fresh AND equal to a from-scratch recomputation
// of its definition, or explicitly marked stale/quarantined. A fresh AST with
// wrong contents is the one unreachable state.
func assertNeverFreshAndWrong(t *testing.T, e *chaosEnv, round int) {
	t.Helper()
	for _, ca := range e.asts {
		st := e.cat.Status(ca.Def.Name)
		if st.Stale || st.Quarantined {
			continue // honestly degraded: queries will not read it
		}
		want, err := e.engine.Run(ca.Graph)
		if err != nil {
			t.Fatalf("round %d: recompute %s: %v", round, ca.Def.Name, err)
		}
		got := e.store.MustTable(ca.Def.Name)
		if diff := exec.EqualResults(want, &exec.Result{Cols: want.Cols, Rows: got.Snapshot()}); diff != "" {
			t.Fatalf("round %d: %s is FRESH AND WRONG: %s", round, ca.Def.Name, diff)
		}
	}
}

// TestDMLChaosStorm drives mixed insert/delete/update rounds with faults
// armed at every DML maintenance site — delete/update delta evaluation,
// scoped recompute, insert delta, and the full-recompute fallback itself —
// asserting the never-fresh-and-wrong invariant after every round, and that
// clearing the faults plus one full recompute recovers every AST to fresh
// parity.
func TestDMLChaosStorm(t *testing.T) {
	e := newChaosEnv(t)

	faultinject.Enable(17)
	defer faultinject.Disable()
	faultinject.Set("maintain.delete", faultinject.Fault{Err: errors.New("chaos delete delta"), Prob: 0.35})
	faultinject.Set("maintain.update", faultinject.Fault{Panic: "chaos update delta", Prob: 0.35})
	faultinject.Set("maintain.scoped", faultinject.Fault{Err: errors.New("chaos scoped"), Prob: 0.35})
	faultinject.Set("maintain.incremental", faultinject.Fault{Panic: "chaos insert delta", Prob: 0.25})
	faultinject.Set("maintain.full", faultinject.Fault{Err: errors.New("chaos full"), Prob: 0.35})

	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 10; round++ {
		var stats []maintain.Stats
		n := 1
		switch round % 3 {
		case 0:
			sql := fmt.Sprintf("delete from trans where qty = %d and flid <= %d", 1+rng.Intn(5), 10+rng.Intn(40))
			n, stats, _ = e.m.ApplyDelete(e.plans, mustDeleteDML(t, e, sql))
		case 1:
			sql := fmt.Sprintf("update trans set flid = %d where flid = %d", 1+rng.Intn(60), 1+rng.Intn(60))
			n, stats, _ = e.m.ApplyUpdate(e.plans, mustUpdateDML(t, e, sql))
		default:
			stats, _ = e.m.ApplyInsert(e.plans, "trans", randInserts(e, rng, 30))
		}
		// Failures are expected; incomplete accounting is not. Both chaos
		// ASTs read trans, so every round that touched rows must report on
		// both (a no-match DML legitimately reports nothing).
		if n > 0 && len(stats) != len(e.plans) {
			t.Fatalf("round %d: stats incomplete: %d of %d", round, len(stats), len(e.plans))
		}
		assertNeverFreshAndWrong(t, e, round)

		// Operator-style mid-storm recovery: retry full recomputes so later
		// rounds exercise the incremental path again, not just stale→full.
		if round%3 == 2 {
			for _, p := range e.plans {
				for attempt := 0; attempt < 8; attempt++ {
					if _, err := e.m.RefreshFull(p); err == nil {
						break
					}
				}
			}
			assertNeverFreshAndWrong(t, e, round)
		}
	}

	// Recovery contract: faults gone, one successful full recompute per AST
	// restores fresh parity everywhere.
	for _, site := range []string{"maintain.delete", "maintain.update", "maintain.scoped", "maintain.incremental", "maintain.full"} {
		faultinject.Clear(site)
	}
	for _, p := range e.plans {
		if _, err := e.m.RefreshFull(p); err != nil {
			t.Fatalf("recovery refresh %s: %v", p.Name(), err)
		}
	}
	for _, ca := range e.asts {
		if st := e.cat.Status(ca.Def.Name); st.Stale || st.Quarantined {
			t.Fatalf("%s not recovered: %+v", ca.Def.Name, st)
		}
	}
	assertNeverFreshAndWrong(t, e, -1)
}
