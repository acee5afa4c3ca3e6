// Package chaos proves the resilience contract end to end: with faults
// injected at every registered site — materialized-table scan errors,
// refresh panics, match panics, slow scans under a timeout — every
// paper-style query still returns base-table-identical results or a typed
// budget error. Never a wrong answer, never an unrecovered panic.
package chaos

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Paper-style workload: two summary tables and queries routed through them.
var chaosASTs = []catalog.ASTDef{
	{Name: "cast1", SQL: `select faid, flid, year(date) as year, count(*) as cnt
		from trans group by faid, flid, year(date)`},
	{Name: "cast2", SQL: `select state, year(date) as y, count(*) as c, sum(qty * price) as rev
		from trans, loc where flid = lid group by state, year(date)`},
}

var chaosQueries = []string{
	`select flid, count(*) as cnt from trans where year(date) > 1990 group by flid`,
	`select faid, count(*) as cnt from trans group by faid`,
	`select state, sum(qty * price) as rev from trans, loc where flid = lid group by state`,
	`select year(date) as y, count(*) as c from trans group by year(date)`,
}

type chaosEnv struct {
	cat    *catalog.Catalog
	store  *storage.Store
	engine *exec.Engine
	rw     *core.Rewriter
	m      *maintain.Maintainer
	asts   []*core.CompiledAST
	plans  []*maintain.Plan
}

func newChaosEnv(t testing.TB) *chaosEnv {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 1200, Seed: 21})
	e := &chaosEnv{
		cat:    cat,
		store:  store,
		engine: exec.NewEngine(store),
		rw:     core.NewRewriter(cat, core.Options{}),
		m:      maintain.New(store).WithCatalog(cat),
	}
	for _, def := range chaosASTs {
		ca, err := e.rw.CompileAST(def)
		if err != nil {
			t.Fatalf("compile %s: %v", def.Name, err)
		}
		e.asts = append(e.asts, ca)
		res, err := e.engine.Run(ca.Graph)
		if err != nil {
			t.Fatalf("materialize %s: %v", ca.Def.Name, err)
		}
		e.store.PutRows(ca.Table, res.Rows)
		e.plans = append(e.plans, e.m.Analyze(ca))
	}
	return e
}

// baselines runs every chaos query directly on base tables (no ASTs, no
// faults must be armed on base scans when calling this).
func (e *chaosEnv) baselines(t testing.TB) []*exec.Result {
	t.Helper()
	out := make([]*exec.Result, len(chaosQueries))
	for i, sql := range chaosQueries {
		g, err := qgm.BuildSQL(sql, e.cat)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		r, err := e.engine.Run(g)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		out[i] = r
	}
	return out
}

// db wraps the env's components in the astdb facade (the resilience contract's
// home since internal/resilient was retired) under the given limits.
func (e *chaosEnv) db(lim exec.Config) *astdb.Engine {
	return astdb.Wrap(e.rw, e.engine, e.asts, astdb.WithLimits(lim))
}

// askAll answers every chaos query through the resilient facade and checks
// each against its baseline. A typed budget error is acceptable when
// allowBudgetErr; anything else fails the test.
func (e *chaosEnv) askAll(t *testing.T, want []*exec.Result, lim exec.Config, allowBudgetErr bool) []*astdb.Answer {
	t.Helper()
	db := e.db(lim)
	out := make([]*astdb.Answer, len(chaosQueries))
	for i, sql := range chaosQueries {
		ans, err := db.Query(context.Background(), sql)
		if err != nil {
			if allowBudgetErr && (errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled)) {
				continue
			}
			t.Fatalf("query %q failed: %v", sql, err)
		}
		if diff := exec.EqualResults(want[i], ans.Result()); diff != "" {
			t.Fatalf("WRONG ANSWER for %q: %s", sql, diff)
		}
		out[i] = ans
	}
	return out
}

func randInserts(e *chaosEnv, rng *rand.Rand, n int) [][]sqltypes.Value {
	nextTid := int64(e.store.MustTable("trans").Cardinality() + 1000000)
	accts := e.store.MustTable("acct").Cardinality()
	locs := e.store.MustTable("loc").Cardinality()
	pgs := e.store.MustTable("pgroup").Cardinality()
	var out [][]sqltypes.Value
	for i := 0; i < n; i++ {
		out = append(out, []sqltypes.Value{
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
	return out
}

// TestControlRewritesHappen guards the suite's premise: with no faults, the
// summary tables actually serve some of the chaos queries (otherwise the
// fault scenarios would vacuously pass on base-only plans).
func TestControlRewritesHappen(t *testing.T) {
	e := newChaosEnv(t)
	want := e.baselines(t)
	answers := e.askAll(t, want, exec.Config{}, false)
	rewritten := 0
	for _, a := range answers {
		if a != nil && a.Rewrite != nil {
			rewritten++
		}
	}
	if rewritten < 3 {
		t.Fatalf("only %d/%d queries used a summary table; chaos coverage too weak", rewritten, len(chaosQueries))
	}
}

// TestControlUnderVerifyPlans repeats the control scenario and runs the deep
// static checker (internal/qgmcheck, with the summary tables' definitions)
// over every served plan: the same queries must still be served from the
// summary tables, every served plan must pass the checker, and no
// degradation may be recorded.
func TestControlUnderVerifyPlans(t *testing.T) {
	e := newChaosEnv(t)
	o := obs.New()
	e.rw.SetObserver(o)
	want := e.baselines(t)
	answers := e.askAll(t, want, exec.Config{}, false)
	ck := qgmcheck.Checker{ASTDefs: map[string]*qgm.Graph{}}
	for _, ca := range e.asts {
		ck.ASTDefs[ca.Def.Name] = ca.Graph
	}
	rewritten := 0
	for i, a := range answers {
		if a.Rewrite != nil {
			rewritten++
		}
		if vs := ck.Check(a.Plan); len(vs) > 0 {
			t.Errorf("served plan of %q is unsound: %v", chaosQueries[i], vs)
		}
	}
	if rewritten < 3 {
		t.Fatalf("only %d/%d queries used a summary table under verification", rewritten, len(chaosQueries))
	}
	if n := o.Counter(core.CtrDegradations); n != 0 {
		t.Fatalf("sound plans degraded %d times: %+v", n, o.Snapshot().Events)
	}
}

// TestScanErrorOnMaterializedTable: reading any summary table fails; every
// query must fall back to base tables and stay correct.
func TestScanErrorOnMaterializedTable(t *testing.T) {
	e := newChaosEnv(t)
	want := e.baselines(t)

	faultinject.Enable(1)
	defer faultinject.Disable()
	for _, def := range chaosASTs {
		faultinject.Set("storage.scan:"+def.Name, faultinject.Err("storage.scan:"+def.Name))
	}

	answers := e.askAll(t, want, exec.Config{}, false)
	fellBack := 0
	for _, a := range answers {
		if a != nil && a.FellBack {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no query exercised the execution fallback")
	}
	// The read failures marked the ASTs stale: later queries skip them
	// entirely rather than re-trying the broken scan.
	if gen := e.cat.Statuses(); gen.Usable("cast1", false) && gen.Usable("cast2", false) {
		t.Fatal("failed materialized reads did not mark any AST stale")
	}
}

// TestMatchPanic: the match machinery panics on every candidate; queries run
// on base plans, results identical.
func TestMatchPanic(t *testing.T) {
	e := newChaosEnv(t)
	o := obs.New()
	e.rw.SetObserver(o)
	want := e.baselines(t)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("core.match", faultinject.Fault{Panic: "chaos: match panic"})

	answers := e.askAll(t, want, exec.Config{}, false)
	for i, a := range answers {
		if a != nil && a.Rewrite != nil {
			t.Fatalf("query %d claimed a rewrite while matching panics", i)
		}
	}
	if o.Counter(core.CtrDegradations) == 0 {
		t.Fatal("match panics were not recorded")
	}
}

// TestRefreshPanicLeavesStaleUnread: both refresh strategies panic during
// ApplyInsert; the base insert lands, the ASTs stay on their pre-insert
// contents and are marked stale, and — critically — no query reads them, so
// answers match the post-insert base tables.
func TestRefreshPanicLeavesStaleUnread(t *testing.T) {
	e := newChaosEnv(t)

	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("maintain.incremental", faultinject.Fault{Panic: "chaos: refresh panic"})
	faultinject.Set("maintain.full", faultinject.Fault{Panic: "chaos: refresh panic"})

	rows := randInserts(e, rand.New(rand.NewSource(31)), 80)
	stats, err := e.m.ApplyInsert(e.plans, "trans", rows)
	if err == nil {
		t.Fatal("expected refresh failures")
	}
	if len(stats) != len(e.plans) {
		t.Fatalf("stats incomplete: %d of %d", len(stats), len(e.plans))
	}
	for _, st := range stats {
		if st.Err == nil {
			t.Fatalf("per-AST error missing: %+v", st)
		}
	}

	// Baselines computed AFTER the insert: a stale AST would give smaller
	// counts, so any read of it is caught as a wrong answer.
	want := e.baselines(t)
	answers := e.askAll(t, want, exec.Config{}, false)
	for i, a := range answers {
		if a != nil && a.Rewrite != nil {
			t.Fatalf("query %d read a deliberately stale AST", i)
		}
	}

	// Recovery: refreshes succeed again (sites disarmed), ASTs serve queries.
	faultinject.Clear("maintain.incremental")
	faultinject.Clear("maintain.full")
	for _, p := range e.plans {
		if _, err := e.m.RefreshFull(p); err != nil {
			t.Fatalf("recovery refresh: %v", err)
		}
	}
	answers = e.askAll(t, want, exec.Config{}, false)
	rewritten := 0
	for _, a := range answers {
		if a != nil && a.Rewrite != nil {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("recovered ASTs never served a query")
	}
}

// TestSlowScanTimeout: a delayed base scan under a small timeout yields a
// typed cancellation error, not a hang and not a wrong answer.
func TestSlowScanTimeout(t *testing.T) {
	e := newChaosEnv(t)
	want := e.baselines(t)

	faultinject.Enable(1)
	defer faultinject.Disable()
	// Prefix site: delays every table scan, so neither a base plan nor a
	// summary-table plan can dodge the slowdown.
	faultinject.Set("storage.scan", faultinject.Fault{Delay: 150 * time.Millisecond})

	sawTyped := false
	db := e.db(exec.Config{Timeout: 20 * time.Millisecond})
	for i, sql := range chaosQueries {
		ans, err := db.Query(context.Background(), sql)
		if err != nil {
			if !errors.Is(err, exec.ErrCanceled) && !errors.Is(err, exec.ErrBudgetExceeded) {
				t.Fatalf("query %q: untyped failure %v", sql, err)
			}
			sawTyped = true
			continue
		}
		if diff := exec.EqualResults(want[i], ans.Result()); diff != "" {
			t.Fatalf("WRONG ANSWER for %q under timeout: %s", sql, diff)
		}
	}
	if !sawTyped {
		t.Fatal("no query hit the timeout; delay site apparently unwired")
	}
}

// TestRowBudget: a tiny row budget yields typed ErrBudgetExceeded through the
// resilient pipeline (no silent truncation).
func TestRowBudget(t *testing.T) {
	e := newChaosEnv(t)
	db := astdb.Wrap(e.rw, e.engine, nil, astdb.WithLimits(exec.Config{MaxRows: 10}))
	_, err := db.Query(context.Background(), chaosQueries[0])
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestProbabilisticSweep flips every AST-side fault site on with 30%
// probability across repeated rounds of queries and maintenance. Whatever
// fires, answers must equal a base-table recomputation or fail with a typed
// budget error.
func TestProbabilisticSweep(t *testing.T) {
	e := newChaosEnv(t)

	faultinject.Enable(99)
	defer faultinject.Disable()
	for _, def := range chaosASTs {
		faultinject.Set("storage.scan:"+def.Name, faultinject.Fault{Err: errors.New("chaos scan"), Prob: 0.3})
	}
	faultinject.Set("core.match", faultinject.Fault{Panic: "chaos match", Prob: 0.3})
	faultinject.Set("maintain.incremental", faultinject.Fault{Panic: "chaos inc", Prob: 0.3})
	faultinject.Set("maintain.full", faultinject.Fault{Err: errors.New("chaos full"), Prob: 0.3})

	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 6; round++ {
		// Maintenance under chaos: errors allowed, stats must be complete.
		stats, _ := e.m.ApplyInsert(e.plans, "trans", randInserts(e, rng, 30))
		if len(stats) != len(e.plans) {
			t.Fatalf("round %d: stats incomplete", round)
		}
		want := e.baselines(t)
		e.askAll(t, want, exec.Config{}, true)
		// Occasionally recover quarantined/stale ASTs the way an operator
		// would: keep retrying the full recompute until one succeeds.
		if round%2 == 1 {
			for _, p := range e.plans {
				for attempt := 0; attempt < 8; attempt++ {
					if _, err := e.m.RefreshFull(p); err == nil {
						break
					}
				}
			}
		}
	}
}
