package astdb_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
)

// suiteEngine builds a facade over the paper workload with every summary
// table registered. Each call builds an identical environment (fixed seed),
// so results from two engines are comparable row for row.
func suiteEngine(t *testing.T, opts ...astdb.Option) *astdb.Engine {
	t.Helper()
	env := bench.NewEnvDefault(goldenScale)
	names := make([]string, 0, len(bench.ASTDefs))
	for name := range bench.ASTDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := env.RegisterAST(name, bench.ASTDefs[name]); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	return env.DB(opts...)
}

// TestObserverParity runs the whole paper query suite through an observed and
// an unobserved engine and requires identical answers: observability must
// never change what a query returns, which summary table serves it, or
// whether the cache hits.
func TestObserverParity(t *testing.T) {
	observed := suiteEngine(t, astdb.WithObserver(obs.New()))
	plain := suiteEngine(t)

	names := make([]string, 0, len(bench.Queries))
	for name := range bench.Queries {
		names = append(names, name)
	}
	sort.Strings(names)

	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ { // second pass goes through the plan cache
		for _, name := range names {
			a, err := observed.Query(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (observed): %v", name, err)
			}
			b, err := plain.Query(ctx, bench.Queries[name])
			if err != nil {
				t.Fatalf("%s (plain): %v", name, err)
			}
			if strings.Join(a.ASTs, ",") != strings.Join(b.ASTs, ",") || a.CacheHit != b.CacheHit {
				t.Fatalf("%s pass %d: routing diverged: observed (ast=%q hit=%t) vs plain (ast=%q hit=%t)",
					name, pass, strings.Join(a.ASTs, ","), a.CacheHit, strings.Join(b.ASTs, ","), b.CacheHit)
			}
			if diff := exec.EqualResults(a.Result(), b.Result()); diff != "" {
				t.Fatalf("%s pass %d: results diverged: %s", name, pass, diff)
			}
		}
	}

	// The observed engine must actually have recorded the pipeline...
	snap := observed.Snapshot()
	for _, ctr := range []string{"core.match.candidates", "core.plancache.hits", "exec.runs"} {
		if snap.Counters[ctr] <= 0 {
			t.Errorf("observed engine recorded no %s", ctr)
		}
	}
	if len(snap.Spans) == 0 {
		t.Error("observed engine recorded no spans")
	}
	// ...and the unobserved engine must have recorded nothing at all.
	if plainSnap := plain.Snapshot(); len(plainSnap.Counters) != 0 || len(plainSnap.Spans) != 0 || len(plainSnap.Events) != 0 {
		t.Errorf("disabled observer accumulated state: %+v", plainSnap)
	}
}

// TestDisabledInstrumentationZeroAlloc pins the facade's hot-path contract:
// with no observer attached, the per-query instrumentation sequence (span
// from context, child span, counter, end) allocates nothing.
func TestDisabledInstrumentationZeroAlloc(t *testing.T) {
	var o *obs.Observer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		span := obs.SpanFromContext(ctx)
		child := span.Child("exec")
		o.Add("exec.runs", 1)
		o.Observe("exec.run", 0)
		ctx2 := obs.ContextWithSpan(ctx, child)
		_ = ctx2
		child.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f times per run, want 0", allocs)
	}
}
