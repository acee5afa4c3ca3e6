package astdb_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/sqltypes"
)

// tearQuery joins two derived tables that the planner splices to two summary
// tables, s_cnt and s_sum. With amount always 1, total = cnt in every row of
// every committed state; a row where they differ read the two tables from
// different states.
const tearQuery = `select a.region, a.total, b.cnt
	from (select region, sum(amount) as total from sales group by region) as a,
	     (select region, count(*) as cnt from sales group by region) as b
	where a.region = b.region`

// openTearDB builds sales(id, region, amount) with 4,000 rows over four
// regions, amount 1 everywhere, and the summary tables s_sum and s_cnt.
func openTearDB(t *testing.T) *astdb.Engine {
	t.Helper()
	ctx := context.Background()
	db, err := astdb.Open(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&catalog.Table{Name: "sales", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "region", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(ctx, "sales", salesBatch(0, 4000)); err != nil {
		t.Fatal(err)
	}
	for _, def := range [][2]string{
		{"s_sum", `select region, sum(amount) as total from sales group by region`},
		{"s_cnt", `select region, count(*) as cnt from sales group by region`},
	} {
		if _, _, err := db.CreateSummaryTable(ctx, def[0], def[1]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// salesBatch is n sales rows with ids from first, four regions, amount 1.
func salesBatch(first, n int) [][]sqltypes.Value {
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		id := int64(first + i)
		rows[i] = []sqltypes.Value{sqltypes.NewInt(id), sqltypes.NewInt(id % 4), sqltypes.NewInt(1)}
	}
	return rows
}

// TestSplicedSummaryTablesReadOneGeneration is the tear probe: 3,000 reads of
// a plan over s_cnt and s_sum beside a writer inserting 64-row batches. A
// statement and every summary table it maintains publish in one generation,
// and a query reads one generation, so no row may have total ≠ cnt. Run under
// -race.
func TestSplicedSummaryTablesReadOneGeneration(t *testing.T) {
	db := openTearDB(t)
	ctx := context.Background()
	if ans, err := db.Query(ctx, tearQuery); err != nil {
		t.Fatal(err)
	} else if slices.Sort(ans.ASTs); !slices.Equal(ans.ASTs, []string{"s_cnt", "s_sum"}) {
		t.Fatalf("the probe reads %v, want both summary tables", ans.ASTs)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	var batches atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for next := 4000; ; next += 64 {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Insert(ctx, "sales", salesBatch(next, 64)); err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()
	torn, rows := 0, 0
	for i := 0; i < 3000; i++ {
		ans, err := db.Query(ctx, tearQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ans.Rows() {
			rows++
			if !sqltypes.Identical(r[1], r[2]) {
				if torn++; torn == 1 {
					t.Errorf("read %d, region %v: total %v ≠ cnt %v (plan over %v)", i, r[0], r[1], r[2], ans.ASTs)
				}
			}
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d rows torn in 3,000 reads", torn, rows)
	}
	if batches.Load() == 0 {
		t.Fatal("no batch was inserted during the reads")
	}
}

// TestFreshnessPublishesWithTheTable: s_sum's full refresh fails (an injected
// fault, its incremental merge too) throughout a storm of INSERTs, beside
// readers of the probe query. Each failure marks s_sum stale in the generation
// that carries the statement's new base rows and merged s_cnt, so a reader
// either sees s_sum fresh with the rows it was computed from or sees it stale
// and does not route to it: no answer may have total ≠ cnt.
func TestFreshnessPublishesWithTheTable(t *testing.T) {
	db := openTearDB(t)
	ctx := context.Background()
	faultinject.Enable(1)
	defer faultinject.Disable()
	for _, site := range []string{"maintain.full:s_sum", "maintain.incremental:s_sum"} {
		faultinject.Set(site, faultinject.Fault{Err: errors.New("injected")})
	}
	done := make(chan struct{})
	defer func() { <-done }()
	go func() {
		defer close(done)
		for next := 4000; next < 4000+200*64; next += 64 {
			// The rows land; the error names s_sum's failed refresh.
			if _, err := db.Insert(ctx, "sales", salesBatch(next, 64)); err == nil {
				t.Error("an INSERT refreshed s_sum through the injected fault")
				return
			}
		}
	}()
	for i, writing := 0, true; writing || i < 500; i++ {
		select {
		case <-done:
			writing = false
		default:
		}
		ans, err := db.Query(ctx, tearQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ans.Rows() {
			if !sqltypes.Identical(r[1], r[2]) {
				t.Fatalf("read %d: total %v ≠ cnt %v over %v: it read a summary table its own generation marks stale", i, r[1], r[2], ans.ASTs)
			}
		}
	}
	if st := db.Catalog().Status("s_sum"); !st.Stale || !st.Quarantined {
		t.Fatalf("s_sum after failed refreshes: %+v, want stale and quarantined", st)
	}
}

// TestFallbackMarkSurvivesWriters: a query whose summary table cannot be read
// falls back and marks the table stale without waiting for the writer slot,
// so the mark can land while a statement is being built. A statement that
// does not refresh the table must publish the mark along: it applies its own
// transitions to the statuses current at its publication.
func TestFallbackMarkSurvivesWriters(t *testing.T) {
	db := openTearDB(t)
	ctx := context.Background()
	if err := db.CreateTable(&catalog.Table{Name: "other", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "region", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("storage.scan:s_cnt", faultinject.Fault{Err: errors.New("injected")})

	var written atomic.Int64 // statements on other that have published
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for next := 0; ; next += 64 {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Insert(ctx, "other", salesBatch(next, 64)); err != nil {
				t.Error(err)
				return
			}
			written.Add(1)
		}
	}()
	const count = `select region, count(*) as cnt from sales group by region`
	for round := 0; round < 100; round++ {
		if _, err := db.Refresh(ctx, "s_cnt"); err != nil {
			t.Fatal(err)
		}
		ans, err := db.Query(ctx, count)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.FellBack {
			t.Fatalf("round %d: a failed read of s_cnt did not fall back (plan over %v)", round, ans.ASTs)
		}
		for seen := written.Load(); written.Load() < seen+2; {
			runtime.Gosched()
		}
		if !db.Catalog().Status("s_cnt").Stale {
			t.Fatalf("round %d: a writer's publication lost the fallback's stale mark", round)
		}
	}
}
