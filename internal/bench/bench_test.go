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
// adds the plan-cache probe) and must not go above it. q7 over ast7 joins the
// 200-row loc dimension: it took 105.7 KiB when base tables were still cached
// as rows in the store, and is capped 2 % above that, so a dimension build
// that flattens its table on every execution (about +45 KiB) trips it.
func TestServedStatementBytesPerRun(t *testing.T) {
	if perRun := bytesPerExecution(t, "q4 from ast6", "ast6", Queries["q4"], 0, 500); perRun > 4.28 {
		t.Errorf("q4 from ast6 allocates %.2f KiB per execution, above 4.28", perRun)
	}
	if raceEnabled {
		return
	}
	if perRun := bytesPerExecution(t, "q7 from ast7", "ast7", Queries["q7"], 0, 100); perRun > 105.7*1.02 {
		t.Errorf("q7 from ast7 allocates %.1f KiB per execution, above %.1f", perRun, 105.7*1.02)
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

// tenTableEngine is the benchmark's deployment in process: the 100k-row star
// schema (200 accounts, 100 customers) with its ten summary tables, the
// paper's ast1, ast6 and ast7 and the DS set.
func tenTableEngine(t *testing.T) *astdb.Engine {
	t.Helper()
	cat := catalog.New()
	db, err := astdb.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 100000, NumAccts: 200, NumCusts: 100, Seed: 7})
	defs := []catalog.ASTDef{{Name: "ast1", SQL: ASTDefs["ast1"]}, {Name: "ast6", SQL: ASTDefs["ast6"]}, {Name: "ast7", SQL: ASTDefs["ast7"]}}
	for _, ds := range workload.DSASTs {
		defs = append(defs, catalog.ASTDef{Name: ds.Name, SQL: ds.SQL})
	}
	for _, def := range defs {
		if _, _, err := db.CreateSummaryTable(context.Background(), def.Name, def.SQL); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.ASTs()) != 10 {
		t.Fatalf("%d summary tables, want 10", len(db.ASTs()))
	}
	return db
}

// TestWriteBytesPerStatement: a 64-row UPDATE or DELETE costs what it
// touches, not the table. Both statements hit the first 64 rows of trans —
// for a DELETE the worst place, since every later row moves up and every
// chunk after the first is rebuilt. When the store kept a row copy of every
// table and each statement rebuilt the whole table from it, each cost about
// 30 MiB in process.
func TestWriteBytesPerStatement(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("bytes under -race are the race runtime's too; the set-up is a 100k-row load")
	}
	db := tenTableEngine(t)
	for _, sql := range []string{
		"update trans set qty = qty + 1 where tid >= 1 and tid < 65",
		"delete from trans where tid >= 1 and tid < 65",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.ExecStatement(context.Background(), sql)
		runtime.ReadMemStats(&after)
		if err != nil || res.Affected != 64 {
			t.Fatalf("%s: %v, %+v", sql, err, res)
		}
		mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: %.1f MiB", sql, mib)
		if mib > 10 {
			t.Errorf("%s allocates %.1f MiB, above 10", sql, mib)
		}
	}
}

// TestLiveHeapAfterScans: what the benchmark's deployment keeps alive once
// every base table has been read whole — the answer check and the table hash
// do that — is its chunks and summary tables. It was 48.6 MiB while every Scan
// left a row copy of its table behind in the store.
func TestLiveHeapAfterScans(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap under -race is the race runtime's too; the set-up is a 100k-row load")
	}
	var base, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	db := tenTableEngine(t)
	for _, name := range []string{"acct", "cust", "loc", "pgroup", "trans"} {
		if _, err := db.Store().Scan(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	mib := (float64(after.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
	t.Logf("live heap %.1f MiB", mib)
	if mib > 16 {
		t.Errorf("live heap %.1f MiB after loading and scanning, above 16", mib)
	}
}
