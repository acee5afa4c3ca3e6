package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildTestGraph compiles SQL over the star-schema fixture (exec_test.go).
func buildTestGraph(t *testing.T, sql string) (*Engine, *qgm.Graph) {
	t.Helper()
	cat, _, e := fixture(t, 200)
	g, err := qgm.BuildSQL(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestRunCtxNoLimitsMatchesRun(t *testing.T) {
	e, g := buildTestGraph(t, "select flid, count(*) as c from trans group by flid")
	want, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunCtx(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := EqualResults(want, got); diff != "" {
		t.Fatalf("RunCtx differs from Run: %s", diff)
	}
}

func TestMaxRowsBudget(t *testing.T) {
	// A cross join of trans with itself materializes n^2 bindings; a tiny
	// budget must trip long before that.
	e, g := buildTestGraph(t, "select a.tid as t1 from trans a, trans b")
	_, err := e.RunCtx(context.Background(), g, Config{MaxRows: 500})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// A generous budget succeeds.
	if _, err := e.RunCtx(context.Background(), g, Config{MaxRows: 1 << 20}); err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	e, g := buildTestGraph(t, "select flid, count(*) as c from trans group by flid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunCtx(ctx, g, Config{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestTimeoutWithSlowScan(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("storage.scan:trans", faultinject.Fault{Delay: 100 * time.Millisecond})

	e, g := buildTestGraph(t, "select tid from trans")
	_, err := e.RunCtx(context.Background(), g, Config{Timeout: 10 * time.Millisecond})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from timeout, got %v", err)
	}
}

func TestInjectedScanError(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("storage.scan:trans", faultinject.Err("storage.scan:trans"))

	e, g := buildTestGraph(t, "select tid from trans")
	if _, err := e.Run(g); err == nil {
		t.Fatal("injected scan error did not surface")
	}
}

// joinFixture is a self-join on trans whose output dwarfs its inputs, run on
// the star probe: the first trans is the fact, scanned in chunks, the second a
// hashed dimension.
func joinFixture(t *testing.T) (*Engine, *qgm.Graph, int) {
	t.Helper()
	cat, store, e := fixture(t, 12*storage.ChunkRows)
	g, err := qgm.BuildSQL(`select a.tid as t1, b.tid as t2 from trans a, trans b
		where a.faid = b.faid and b.qty = 1 and b.disc > 0.2 and b.price > 100`, cat)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, store.MustTable("trans").Cardinality()
}

// TestMaxRowsBudgetInsideProbe: join output is charged tuple by tuple as the
// probe produces it, so a budget that covers both scans but not the join
// trips inside the probe, with the typed error.
func TestMaxRowsBudgetInsideProbe(t *testing.T) {
	e, g, n := joinFixture(t)
	res, err := e.RunCtx(context.Background(), g, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 8*n {
		t.Fatalf("fixture join too small to tell: %d rows from %d", len(res.Rows), n)
	}
	for _, par := range []int{1, 2} {
		_, err = e.RunCtx(context.Background(), g, Config{MaxRows: 4 * n, Parallelism: par})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("parallelism %d: want ErrBudgetExceeded, got %v", par, err)
		}
	}
}

// countdownCtx reports itself canceled from its n-th Done poll on.
type countdownCtx struct {
	context.Context
	polls, cancelAt int
	closed          chan struct{}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return c.closed
	}
	return nil
}

func (c *countdownCtx) Err() error { return context.Canceled }

// TestCancelMidProbe: a context canceled while the probe is half way through
// the fact chunks surfaces as ErrCanceled. The serial run polls the context a
// fixed number of times, nearly all of them from the probe as it charges its
// tuples, so the middle poll is mid-probe.
func TestCancelMidProbe(t *testing.T) {
	e, g, _ := joinFixture(t)
	closed := make(chan struct{})
	close(closed)
	dry := &countdownCtx{Context: context.Background(), closed: closed}
	if _, err := e.RunCtx(dry, g, Config{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if dry.polls < 24 {
		t.Fatalf("only %d polls: the probe is not polling", dry.polls)
	}
	ctx := &countdownCtx{Context: context.Background(), cancelAt: dry.polls / 2, closed: closed}
	_, err := e.RunCtx(ctx, g, Config{Parallelism: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ctx.polls != ctx.cancelAt {
		t.Fatalf("run went on for %d polls after the one that canceled it", ctx.polls-ctx.cancelAt)
	}
}

// TestCrossJoinChargedAsBuilt: a cross join's tuples are charged as the probe
// builds them, a run of the dimension's rows at a time, so MaxRows trips and a
// cancellation is seen within one fact row's tuples, not a chunk's (ChunkRows
// times the dimension's rows).
func TestCrossJoinChargedAsBuilt(t *testing.T) {
	cat, store, e := fixture(t, 2*storage.ChunkRows)
	n := store.MustTable("trans").Cardinality()
	build := func(sql string) *qgm.Graph {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cross := build(`select a.tid as t1, b.tid as t2 from trans a, trans b`)
	for _, par := range []int{1, 2} {
		ev := testEvaluator(store, nil)
		ev.par, ev.bud.maxRows = par, int64(3*n)
		if _, err := ev.evalBox(cross.Root); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("parallelism %d: want ErrBudgetExceeded, got %v", par, err)
		}
		// Each worker overshoots by at most one run and one batch.
		if used, most := ev.bud.used.Load(), int64(3*n+par*(n+chargeBatch)); used > most {
			t.Fatalf("parallelism %d: %d rows charged before a budget of %d tripped, more than %d", par, used, 3*n, most)
		}
	}

	closed := make(chan struct{})
	close(closed)
	count := build(`select count(*) as c from trans a, trans b`)
	dry := &countdownCtx{Context: context.Background(), closed: closed}
	if _, err := e.RunCtx(dry, count, Config{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if dry.polls < n {
		t.Fatalf("%d polls over %d tuples: the probe polls less than once per fact row", dry.polls, n*n)
	}
	ctx := &countdownCtx{Context: context.Background(), cancelAt: dry.polls / 2, closed: closed}
	if _, err := e.RunCtx(ctx, count, Config{Parallelism: 1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ctx.polls != ctx.cancelAt {
		t.Fatalf("run went on for %d polls after the one that canceled it", ctx.polls-ctx.cancelAt)
	}
}

// TestSnowflakeChargedAsJoined: a dimension tied only to another dimension
// (cust, through acct) is probed on that tie, so the probe charges the joined
// tuples, not every fact row paired with every customer. The row path charges
// the same scans, tuples and output rows, and besides them the bindings of its
// first join step (trans with acct), which the probe never builds.
func TestSnowflakeChargedAsJoined(t *testing.T) {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 2000, NumAccts: 40, NumCusts: 400, Seed: 42})
	g, err := qgm.BuildSQL(`select tid, cname from trans, acct, cust where faid = aid and acid = cid`, cat)
	if err != nil {
		t.Fatal(err)
	}
	charged := func(interpret bool) (int, int64) {
		ev := testEvaluator(store, nil)
		ev.interpret = interpret
		rel, err := ev.evalBox(g.Root)
		if err == nil {
			err = ev.chg.flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		return rel.n, ev.bud.used.Load()
	}
	n, pipe := charged(false)
	rn, row := charged(true)
	if n != 2000 || rn != n {
		t.Fatalf("%d tuples on the pipeline, %d on the row path, want every transaction once", n, rn)
	}
	if pipe != row-int64(n) {
		t.Fatalf("the pipeline charged %d rows, the row path %d: want the row path's less its %d first-step bindings", pipe, row, n)
	}
}

// TestMaxRowsBudgetDuringEmission: a GROUP BY's groups are charged as they are
// emitted, a chunk at a time, so a budget that covers the input but not the
// groups trips during emission, with the typed error, on both paths. The GROUP
// BY box runs alone, so nothing after its emission is charged. Its input is
// charged alike whatever the groups: the budget is the least that one group
// over the same rows runs in, plus half the groups.
func TestMaxRowsBudgetDuringEmission(t *testing.T) {
	const groups = 3000
	store, fix, _ := havingFixture(t, groups)
	groupBy := func(sql string) *qgm.Box {
		g, err := qgm.BuildSQL(sql, fix.Cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range g.Boxes() {
			if b.Kind == qgm.GroupByBox {
				return b
			}
		}
		t.Fatalf("%s: no GROUP BY box", sql)
		return nil
	}
	many := groupBy("select k, count(*) as c from t group by k")
	one := groupBy("select k * 0 as z, count(*) as c from t group by k * 0")
	for _, cfg := range []Config{{Parallelism: 1}, {Parallelism: 2}, {Interpret: true}} {
		runs := func(b *qgm.Box, budget int) bool {
			o := obs.New()
			ev := testEvaluator(store, o)
			ev.par, ev.interpret, ev.bud.maxRows = cfg.Parallelism, cfg.Interpret, int64(budget)
			_, err := ev.evalBox(b)
			if err == nil {
				err = ev.chg.flush()
			}
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatal(err)
			}
			if ran := o.Counter(CtrVecBoxes) > 0; err == nil && ran == cfg.Interpret {
				t.Fatalf("%+v: the pipeline ran %v", cfg, ran)
			}
			return err == nil
		}
		lo, hi := 1, 1<<20 // the least budget one group runs in is in (lo, hi]
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; runs(one, mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		if budget := hi + groups/2; runs(many, budget) {
			t.Errorf("%+v: %d groups emitted within a budget of %d, what one group needs and half the groups", cfg, groups, budget)
		}
		if !runs(many, hi+groups) {
			t.Errorf("%+v: %d groups do not run within a budget of %d", cfg, groups, hi+groups)
		}
	}
}

// TestMaxRowsBudgetChargesAGroupByOnce: the pipeline charges what
// Config.MaxRows lists — the scan of keyTable's 3,372 rows, the GROUP BY's 7
// groups and the 7 rows of the SELECT over it, 3,386 — and the GROUP BY's
// fused input rows no second time: every budget from 3,376 to 3,396 is
// refused below 3,386 and served from there on, serially and at two workers.
func TestMaxRowsBudgetChargesAGroupByOnce(t *testing.T) {
	cat, store := keyTable()
	g, err := qgm.BuildSQL("select g, count(*) as c from k group by g", cat)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store)
	if res, err := e.Run(g); err != nil || len(res.Rows) != 7 || store.MustTable("k").Cardinality() != 3372 {
		t.Fatalf("fixture: %v, want 7 groups of 3,372 rows", err)
	}
	for _, par := range []int{1, 2} {
		for budget := 3376; budget <= 3396; budget++ {
			_, err := e.RunCtx(context.Background(), g, Config{MaxRows: budget, Parallelism: par})
			if served := err == nil; served != (budget >= 3386) || !served && !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("parallelism %d, budget %d: %v, want served from 3,386 on", par, budget, err)
			}
		}
	}
}
