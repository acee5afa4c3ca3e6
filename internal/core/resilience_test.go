package core_test

// Tests for the graceful-degradation layer: match-panic recovery,
// staleness/quarantine filtering, and RewriteOrFallback's always-runnable
// guarantee. A broken definition refused on its own is astdb's
// TestBrokenDefinitionIsRefusedAlone.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

const resAST = `select flid, year(date) as year, count(*) as cnt
	from trans group by flid, year(date)`

const resQuery = `select flid, count(*) as cnt from trans where year(date) > 1990 group by flid`

func TestRewriteSkipsStaleAndQuarantined(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "staleast", resAST)

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	if e.rw.Rewrite(g, ca) == nil {
		t.Fatal("fresh AST should match")
	}

	e.store.Apply(e.cat.Stale("staleast"))
	g2, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := e.rw.Rewrite(g2, ca); res != nil {
		t.Fatal("stale AST used with AllowStale=false")
	}
	if _, res := e.rw.RewriteOrFallback(context.Background(), g2, []*core.CompiledAST{ca}, e.store); res != nil {
		t.Fatal("RewriteOrFallback used a stale AST")
	}

	// AllowStale opts back in.
	rwStale := core.NewRewriter(e.cat, core.Options{AllowStale: true})
	g3, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := rwStale.Rewrite(g3, ca); res == nil {
		t.Fatal("AllowStale rewriter refused a stale AST")
	}

	// Quarantine beats AllowStale.
	for range catalog.DefaultQuarantineThreshold {
		e.store.Apply(e.cat.Failed("staleast"))
	}
	g4, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := rwStale.Rewrite(g4, ca); res != nil {
		t.Fatal("quarantined AST was used")
	}

	// Recovery restores matching.
	e.store.Apply(e.cat.Fresh("staleast"))
	g5, _ := qgm.BuildSQL(resQuery, e.cat)
	if res := e.rw.Rewrite(g5, ca); res == nil {
		t.Fatal("recovered AST should match again")
	}
}

// TestFaultedCandidateLeavesSharedGraphUsable: all candidates of one rewrite
// are matched on one graph, so a candidate that panics or fails mid-list must
// not cost the candidates after it their match, nor the plan its soundness,
// nor — through RewriteOrFallback — the caller its untouched input graph.
func TestFaultedCandidateLeavesSharedGraphUsable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultinject.Fault
	}{
		{"panic", faultinject.Fault{Panic: "injected match panic"}},
		{"error", faultinject.Fault{Err: errors.New("injected match fault")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Enable(1)
			defer faultinject.Disable()

			e := newEnv(t, 300)
			o := obs.New()
			e.rw.SetObserver(o)
			first := e.registerAST(t, "first", `select flid, faid, year(date) as year, count(*) as cnt
				from trans group by flid, faid, year(date)`)
			bad := e.registerAST(t, "faulty", resAST)
			good := e.registerAST(t, "healthy", resAST)
			faultinject.Set("core.match:faulty", tc.fault)

			g, err := qgm.BuildSQL(resQuery, e.cat)
			if err != nil {
				t.Fatal(err)
			}
			before := g.SQL()
			plan, res := e.rw.RewriteOrFallback(context.Background(), g, []*core.CompiledAST{first, bad, good}, e.store)
			if res == nil {
				t.Fatal("faulted candidate prevented the healthy ones from matching")
			}
			// healthy is the smaller table; it is matched after the fault.
			if res.AST.Def.Name != "healthy" {
				t.Fatalf("rewrote against %q, want healthy", res.AST.Def.Name)
			}
			if g.SQL() != before {
				t.Fatal("input graph was mutated")
			}
			if err := qgmcheck.Structural(plan); err != nil {
				t.Fatalf("spliced plan invalid: %v", err)
			}
			origRes, err := e.engine.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			newRes, err := e.engine.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if diff := exec.EqualResults(origRes, newRes); diff != "" {
				t.Fatalf("results differ: %s", diff)
			}

			degs := degradations(o)
			found := false
			for _, d := range degs {
				if strings.Contains(d, `match against AST "faulty" panicked`) || strings.Contains(d, "injected match fault") {
					found = true
				}
			}
			if !found {
				t.Fatalf("fault not recorded; degradations: %q", degs)
			}
		})
	}
}

func TestRewriteOrFallbackNeverMutatesInput(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "fb", resAST)

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	before := g.SQL()
	plan, res := e.rw.RewriteOrFallback(context.Background(), g, []*core.CompiledAST{ca}, e.store)
	if res == nil {
		t.Fatal("expected a rewrite")
	}
	if plan == g {
		t.Fatal("rewritten plan aliases the input graph")
	}
	if g.SQL() != before {
		t.Fatal("input graph was mutated")
	}
	if err := qgmcheck.Structural(plan); err != nil {
		t.Fatalf("returned plan invalid: %v", err)
	}

	// Original and rewritten plans agree.
	origRes, err := e.engine.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := e.engine.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if diff := exec.EqualResults(origRes, newRes); diff != "" {
		t.Fatalf("results differ: %s", diff)
	}
}

func TestRewriteOrFallbackReturnsBasePlanUnderPanic(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()

	e := newEnv(t, 300)
	ca := e.registerAST(t, "allpanic", resAST)
	faultinject.Set("core.match", faultinject.Fault{Panic: "boom"})

	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, res := e.rw.RewriteOrFallback(context.Background(), g, []*core.CompiledAST{ca}, e.store)
	if res != nil {
		t.Fatal("rewrite succeeded despite injected panic")
	}
	if plan != g {
		t.Fatal("fallback should return the original graph")
	}
	if _, err := e.engine.Run(plan); err != nil {
		t.Fatalf("base plan not runnable: %v", err)
	}
}

func TestRewriteCanceledFallsBack(t *testing.T) {
	e := newEnv(t, 300)
	ca := e.registerAST(t, "ctxast", resAST)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := qgm.BuildSQL(resQuery, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := e.rw.RewriteOrFallback(ctx, g, []*core.CompiledAST{ca}, e.store)
	// With a dead context matching stops immediately; whatever plan comes
	// back must still run.
	if _, err := e.engine.Run(plan); err != nil {
		t.Fatalf("plan under canceled context not runnable: %v", err)
	}
}

// TestRefusedPlanReplansWithTheFirstSplice: when the gate refuses a plan of two
// splices, planning re-plans with the first splice alone, and when it refuses
// that too, falls back to the base plan; each refusal is a degradation naming
// the plan it discarded.
func TestRefusedPlanReplansWithTheFirstSplice(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	e := newEnv(t, 1500)
	asts := []*core.CompiledAST{
		e.registerAST(t, "rp_yearly", `select flid, year(date) as year, count(*) as cnt from trans group by flid, year(date)`),
		e.registerAST(t, "rp_byacct", `select faid, count(*) as cnt from trans group by faid`),
	}
	sql := `select flid, count(*) * 100 / (select count(*) from trans) as pct from trans group by flid`
	g, err := qgm.BuildSQL(sql, e.cat)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, e, g)
	for refusals, tables := range []string{"rp_yearly,rp_byacct", "rp_yearly", ""} {
		o := obs.New()
		e.rw.SetObserver(o)
		faultinject.Clear("core.verify")
		if refusals > 0 {
			faultinject.Set("core.verify", faultinject.Fault{Err: errors.New("refused"), Times: refusals})
		}
		plan, res := e.rw.RewriteOrFallback(context.Background(), g, asts, e.store)
		if got := strings.Join(res.Tables(), ","); got != tables {
			t.Fatalf("%d refusals: plan reads %q, want %q", refusals, got, tables)
		}
		if diff := exec.EqualResults(want, mustRun(t, e, plan)); diff != "" {
			t.Fatalf("%d refusals: %s", refusals, diff)
		}
		degraded := degradations(o)
		if len(degraded) != refusals || o.Counter(core.CtrDegradations) != int64(refusals) {
			t.Fatalf("%d refusals recorded %d degradations (%s = %d): %q",
				refusals, len(degraded), core.CtrDegradations, o.Counter(core.CtrDegradations), degraded)
		}
		if refusals > 0 && !strings.Contains(degraded[0], `re-planning with "rp_yearly" only`) {
			t.Errorf("first refusal recorded %q", degraded[0])
		}
	}
}

// degradations returns the details of the core.degraded events o holds, in
// the order they were recorded.
func degradations(o *obs.Observer) []string {
	var out []string
	for _, ev := range o.Snapshot().Events {
		if ev.Kind == "core.degraded" {
			out = append(out, ev.Detail)
		}
	}
	return out
}
