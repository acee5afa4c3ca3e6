// Randomized DML parity suite. It lives in an external test package so it can
// deploy the paper's full AST portfolio (internal/bench imports astdb, which
// imports maintain — the white-box package would cycle) and drives a mixed
// insert/delete/update sequence over the star workload, proving after every
// single operation that each maintained summary table — whatever maintenance
// route it took — equals a from-scratch evaluation of its definition and is
// marked fresh.
package maintain_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

type parityEnv struct {
	cat    *catalog.Catalog
	store  *storage.Store
	engine *exec.Engine
	m      *maintain.Maintainer
	asts   []*core.CompiledAST
	plans  []*maintain.Plan
}

// newParityEnv deploys the whole portfolio: every paper AST and the DS set.
func newParityEnv(t *testing.T, n int) *parityEnv {
	t.Helper()
	names := make([]string, 0, len(bench.ASTDefs))
	for name := range bench.ASTDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	return newParityEnvOf(t, n, append(paperDefs(names...), dsDefs()...), nil)
}

func paperDefs(names ...string) []catalog.ASTDef {
	var defs []catalog.ASTDef
	for _, name := range names {
		defs = append(defs, catalog.ASTDef{Name: name, SQL: bench.ASTDefs[name]})
	}
	return defs
}

func dsDefs() []catalog.ASTDef {
	var defs []catalog.ASTDef
	for _, ds := range workload.DSASTs {
		defs = append(defs, catalog.ASTDef{Name: ds.Name, SQL: ds.SQL})
	}
	return defs
}

// newParityEnvOf loads n fact rows and materialises defs; o (nil = none)
// observes the materialising engine and the maintainer alike.
func newParityEnvOf(t *testing.T, n int, defs []catalog.ASTDef, o *obs.Observer) *parityEnv {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: n, Seed: 13})
	e := &parityEnv{
		cat:    cat,
		store:  store,
		engine: exec.NewEngine(store),
		m:      maintain.New(store).WithCatalog(cat).WithObserver(o),
	}
	e.engine.SetObserver(o)
	rw := core.NewRewriter(cat, core.Options{})
	for _, def := range defs {
		ca, err := rw.CompileAST(def)
		if err != nil {
			t.Fatalf("compile %s: %v", def.Name, err)
		}
		res, err := e.engine.Run(ca.Graph)
		if err != nil {
			t.Fatalf("materialize %s: %v", def.Name, err)
		}
		store.PutRows(ca.Table, res.Rows)
		store.Apply(cat.Fresh(def.Name))
		e.asts = append(e.asts, ca)
		e.plans = append(e.plans, e.m.Analyze(ca))
	}
	return e
}

// verifyAll asserts the invariant the whole PR is about: after a successful
// DML, every AST is fresh and byte-equal (modulo float tolerance) to a
// from-scratch recomputation of its definition.
func (e *parityEnv) verifyAll(t *testing.T, after string) {
	t.Helper()
	for _, ca := range e.asts {
		want, err := e.engine.Run(ca.Graph)
		if err != nil {
			t.Fatalf("after %q: recompute %s: %v", after, ca.Def.Name, err)
		}
		got := e.store.MustTable(ca.Def.Name)
		if diff := exec.EqualResults(want, &exec.Result{Cols: want.Cols, Rows: got.Snapshot()}); diff != "" {
			t.Fatalf("after %q: %s diverged from recomputation: %s", after, ca.Def.Name, diff)
		}
		if st := e.cat.Status(ca.Def.Name); st.Stale || st.Quarantined {
			t.Fatalf("after %q: %s not fresh: %+v", after, ca.Def.Name, st)
		}
	}
}

func (e *parityEnv) delete(t *testing.T, sql string) {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	dml, err := qgm.BuildDelete(stmt.(*parser.DeleteStmt), e.cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if _, _, err := e.m.ApplyDelete(e.plans, dml); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func (e *parityEnv) update(t *testing.T, sql string) {
	t.Helper()
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	dml, err := qgm.BuildUpdate(stmt.(*parser.UpdateStmt), e.cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if _, _, err := e.m.ApplyUpdate(e.plans, dml); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func (e *parityEnv) insertTrans(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	nextTid := int64(e.store.MustTable("trans").Cardinality() + 1000000)
	accts := e.store.MustTable("acct").Cardinality()
	locs := e.store.MustTable("loc").Cardinality()
	pgs := e.store.MustTable("pgroup").Cardinality()
	var rows [][]sqltypes.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []sqltypes.Value{
			sqltypes.NewInt(nextTid + int64(i)),
			sqltypes.NewInt(int64(1 + rng.Intn(accts))),
			sqltypes.NewInt(int64(1 + rng.Intn(pgs))),
			sqltypes.NewInt(int64(1 + rng.Intn(locs))),
			sqltypes.NewDate(1990+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28)),
			sqltypes.NewInt(int64(1 + rng.Intn(5))),
			sqltypes.NewFloat(float64(1+rng.Intn(5000)) / 10),
			sqltypes.NewFloat(float64(rng.Intn(30)) / 100),
		})
	}
	if _, err := e.m.ApplyInsert(e.plans, "trans", rows); err != nil {
		t.Fatal(err)
	}
}

// TestMixedDMLSequenceParity drives the full paper portfolio (ast1–ast11 plus
// astbad, and the TPC-D style DS AST set) through a seeded random mix of
// inserts, deletes, and updates — group-emptying deletes, group-migrating
// updates, aggregate-input updates, and dimension-table updates included —
// asserting full parity and freshness after every operation.
func TestMixedDMLSequenceParity(t *testing.T) {
	e := newParityEnv(t, 1500)
	e.verifyAll(t, "initial materialization")
	rng := rand.New(rand.NewSource(42))

	ops := []func(r *rand.Rand) (string, bool){
		func(r *rand.Rand) (string, bool) {
			return fmt.Sprintf("delete from trans where qty = %d and flid <= %d", 1+r.Intn(5), 20+r.Intn(60)), false
		},
		func(r *rand.Rand) (string, bool) {
			// Often empties every group of one product: retirement.
			return fmt.Sprintf("delete from trans where fpgid = %d", 1+r.Intn(20)), false
		},
		func(r *rand.Rand) (string, bool) {
			return fmt.Sprintf("delete from trans where disc > 0.2 and faid <= %d", 100+r.Intn(400)), false
		},
		func(r *rand.Rand) (string, bool) {
			// Group migration: rows leave one flid group and join another.
			return fmt.Sprintf("update trans set flid = %d where flid = %d", 1+r.Intn(50), 1+r.Intn(50)), true
		},
		func(r *rand.Rand) (string, bool) {
			return fmt.Sprintf("update trans set qty = qty + 1 where fpgid = %d", 1+r.Intn(20)), true
		},
		func(r *rand.Rand) (string, bool) {
			return fmt.Sprintf("update trans set price = price * 1.1 where qty = %d", 1+r.Intn(5)), true
		},
		func(r *rand.Rand) (string, bool) {
			// Dimension update: migrates state/country groups of join ASTs.
			return fmt.Sprintf("update loc set state = 'TX', country = 'USA' where lid = %d", 1+r.Intn(200)), true
		},
	}

	for i := 0; i < 14; i++ {
		var desc string
		switch {
		case i%5 == 4:
			e.insertTrans(t, rng, 40+rng.Intn(80))
			desc = fmt.Sprintf("insert batch %d", i)
		default:
			sql, isUpdate := ops[rng.Intn(len(ops))](rng)
			if isUpdate {
				e.update(t, sql)
			} else {
				e.delete(t, sql)
			}
			desc = sql
		}
		e.verifyAll(t, desc)
	}

	// The portfolio exercised both routes; sanity-check the classification
	// spread so a regression in Analyze cannot silently turn everything full.
	var inc int
	for _, p := range e.plans {
		if s, _ := p.DeleteRouting("trans"); s == maintain.Incremental {
			inc++
		}
	}
	if inc == 0 {
		t.Fatal("no AST classified delete-incremental; classification regressed")
	}
}

// TestDeleteEverythingParity is the degenerate endpoint: wiping the fact
// table must retire every group of every maintainable AST and leave full
// parity for the rest.
func TestDeleteEverythingParity(t *testing.T) {
	e := newParityEnv(t, 600)
	e.delete(t, "delete from trans")
	if n := e.store.MustTable("trans").Cardinality(); n != 0 {
		t.Fatalf("%d trans rows survived", n)
	}
	e.verifyAll(t, "delete from trans")
	for _, ca := range e.asts {
		if !readsTrans(ca) {
			continue
		}
		if n := e.store.MustTable(ca.Def.Name).Cardinality(); n != 0 {
			t.Errorf("%s still holds %d rows after the fact table emptied", ca.Def.Name, n)
		}
	}
}

func readsTrans(ca *core.CompiledAST) bool {
	return strings.Contains(strings.ToLower(ca.Def.SQL), "trans")
}
