package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/storage"
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
func joinFixture(t *testing.T) (*Engine, *qgm.Graph, *obs.Observer, int) {
	t.Helper()
	cat, store, e := fixture(t, 12*storage.ChunkRows)
	g, err := qgm.BuildSQL(`select a.tid as t1, b.tid as t2 from trans a, trans b
		where a.faid = b.faid and b.qty = 1 and b.disc > 0.2 and b.price > 100`, cat)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	e.SetObserver(o)
	return e, g, o, store.MustTable("trans").Cardinality()
}

// TestMaxRowsBudgetInsideProbe: join output is charged tuple by tuple as the
// probe produces it, so a budget that covers both scans but not the join
// trips inside the probe, with the typed error.
func TestMaxRowsBudgetInsideProbe(t *testing.T) {
	e, g, o, n := joinFixture(t)
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
	if d := o.Counter(CtrVecDeclined); d != 0 {
		t.Fatalf("%d boxes declined: the join did not run on the probe", d)
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
// fixed number of times, nearly all of them from the per-chunk loop, so the
// middle poll is mid-probe.
func TestCancelMidProbe(t *testing.T) {
	e, g, o, _ := joinFixture(t)
	closed := make(chan struct{})
	close(closed)
	dry := &countdownCtx{Context: context.Background(), closed: closed}
	if _, err := e.RunCtx(dry, g, Config{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if dry.polls < 24 {
		t.Fatalf("only %d polls: the per-chunk loop is not polling", dry.polls)
	}
	ctx := &countdownCtx{Context: context.Background(), cancelAt: dry.polls / 2, closed: closed}
	_, err := e.RunCtx(ctx, g, Config{Parallelism: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if ctx.polls != ctx.cancelAt {
		t.Fatalf("run went on for %d polls after the one that canceled it", ctx.polls-ctx.cancelAt)
	}
	if d := o.Counter(CtrVecDeclined); d != 0 {
		t.Fatalf("%d boxes declined: the join did not run on the probe", d)
	}
}
