package bench

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestAllExperimentsSmoke runs every registered experiment at a small scale;
// each must succeed and print a table. This keeps the EXPERIMENTS.md pipeline
// from rotting.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, 3000); err != nil {
				t.Fatalf("%s (%s): %v\noutput so far:\n%s", e.ID, e.PaperRef, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

// TestPairingsCoverAllFiguresAndQueries: every declared query and AST is used
// by some pairing, and each pairing has SQL.
func TestPairingsCoverAllFiguresAndQueries(t *testing.T) {
	usedQ := map[string]bool{}
	usedA := map[string]bool{}
	for _, p := range pairings {
		if _, ok := Queries[p.Query]; !ok {
			t.Errorf("pairing references unknown query %q", p.Query)
		}
		if _, ok := ASTDefs[p.AST]; !ok {
			t.Errorf("pairing references unknown AST %q", p.AST)
		}
		usedQ[p.Query] = true
		usedA[p.AST] = true
	}
	for q := range Queries {
		if !usedQ[q] {
			t.Errorf("query %q not paired", q)
		}
	}
	for a := range ASTDefs {
		if !usedA[a] {
			t.Errorf("AST %q not paired", a)
		}
	}
}

func TestTrialSpeedup(t *testing.T) {
	env := NewEnv(1000, coreOptions())
	ast, err := env.RegisterAST("ast7", ASTDefs["ast7"])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := env.RunTrial(Queries["q7"], ast)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Rewritten || !tr.Verified {
		t.Fatalf("trial failed: %+v", tr)
	}
	if tr.Speedup() <= 0 {
		t.Fatalf("speedup %f", tr.Speedup())
	}
	if !strings.Contains(strings.ToLower(tr.NewSQL), "ast7") {
		t.Fatalf("NewSQL does not read the AST: %s", tr.NewSQL)
	}
}

func TestTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tbl := newTable("a", "long_header")
	tbl.add("x", 42)
	tbl.add("yy", 3.14159)
	tbl.flush(&buf)
	out := buf.String()
	if !strings.Contains(out, "long_header") || !strings.Contains(out, "3.14") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
}

// TestServedStatementBytesPerRun: a statement answered from its summary table
// is a handful of rows through the whole executor, so what it allocates is the
// executor's fixed cost per box — scratch that is sized by ChunkRows instead of
// by the rows at hand shows here first. The plan of q4 over ast6 (a few dozen
// rows, three groups) took 4.28 KiB per execution when the hash scratch of
// PR 15 went in (7.68 KiB per Engine.Query in EXPERIMENTS.md's set-up, which
// adds the plan-cache probe) and must not go above it.
func TestServedStatementBytesPerRun(t *testing.T) {
	if perRun := bytesPerExecution(t, "q4 from ast6", "ast6", Queries["q4"], 0, 500); perRun > 4.28 {
		t.Errorf("q4 from ast6 allocates %.2f KiB per execution, above 4.28", perRun)
	}
}

// TestHighCardinalityGroupByBytesPerRun: the statements whose GROUP BY makes a
// group every few rows, where what the group table keeps per group is most of
// what a statement allocates — served q1 from ast1 (the p95 statement of
// dash-cached), ds6 over the base tables, and q11_3 over the base tables, whose
// COUNT(DISTINCT) keeps a (group, value) pair for almost every row — with two
// workers so that the partials' merge is in. Each is capped at its bytes per
// execution since aggregate states became cells and DISTINCT sets pair tables,
// plus 10 %: q1 513.3 KiB before that change → 424.5 after, ds6 952.4 → 668.6,
// q11_3 2,958.2 → 1,671.5.
func TestHighCardinalityGroupByBytesPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("bytes under -race are the race runtime's too")
	}
	for _, c := range []struct {
		name, ast, sql string
		max            float64
	}{
		{"q1 from ast1", "ast1", Queries["q1"], 467},
		{"ds6 from the base tables", "", dsQuery(t, "ds6"), 736},
		{"q11_3 from the base tables", "", Queries["q11_3"], 1839},
	} {
		if perRun := bytesPerExecution(t, c.name, c.ast, c.sql, 2, 20); perRun > c.max {
			t.Errorf("%s allocates %.1f KiB per execution, above %.1f", c.name, perRun, c.max)
		}
	}
}

func dsQuery(t *testing.T, name string) string {
	for _, q := range workload.DSQueries {
		if q.Name == name {
			return q.SQL
		}
	}
	t.Fatalf("no DS query %s", name)
	return ""
}

// bytesPerExecution plans sql over a 20,000-row star schema — answered from
// summary table ast, or from the base tables when ast is "" — and returns the
// KiB one execution of the plan with par workers (0 = GOMAXPROCS) allocates,
// averaged over runs.
func bytesPerExecution(t *testing.T, name, ast, sql string, par, runs int) float64 {
	t.Helper()
	cat := catalog.New()
	// The engine as benchmark/ and cmd/astserve configure it: observer on.
	db, err := astdb.Open(cat, astdb.WithObserver(obs.New()), astdb.WithLimits(exec.Config{Parallelism: par}))
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 20000, Seed: 7})
	ctx := context.Background()
	if ast != "" {
		if _, _, err := db.CreateSummaryTable(ctx, ast, ASTDefs[ast]); err != nil {
			t.Fatal(err)
		}
	}
	ans, err := db.Query(ctx, sql)
	if err != nil || ans.AST != ast {
		t.Fatalf("answering from %q: %v, answer %+v", ast, err, ans)
	}
	run := func() {
		if res, err := db.Execute(ctx, ans.Plan); err != nil || len(res.Rows) != len(ans.Result.Rows) {
			t.Fatalf("executing the plan: %v", err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1024
	t.Logf("%s: %.2f KiB per execution", name, perRun)
	return perRun
}
