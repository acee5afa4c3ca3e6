package server

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	_ "repro/astdb/driver"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// TestTwoSessionsWriteConcurrently sends DML from two driver sessions at once
// through the admission gate (which admits both) into Engine.ExecStatement,
// where the engine's writer slot makes them take turns: no DELETE or UPDATE is
// lost, no inserted row is missing, and a summary table the catalog calls
// fresh equals a recompute of its definition.
func TestTwoSessionsWriteConcurrently(t *testing.T) {
	db, _, addr := testEnv(t, Config{MaxConcurrent: 4, QueueDepth: 4})
	ctx := context.Background()

	const n, regions = 16000, 16
	if err := db.CreateTable(&catalog.Table{Name: "sales", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "region", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % regions)), sqltypes.NewInt(int64(i % 997))}
	}
	if _, err := db.Insert(ctx, "sales", rows); err != nil {
		t.Fatal(err)
	}
	for name, def := range map[string]string{
		"byregion": `select region, sum(amount) as total, count(*) as cnt from sales group by region`,
		"extremes": `select region, count(*) as cnt, min(amount) as lo, max(amount) as hi from sales group by region`,
	} {
		if _, _, err := db.CreateSummaryTable(ctx, name, def); err != nil {
			t.Fatal(err)
		}
	}

	// Session 0 deletes four regions; session 1 moves region 10 into the new
	// group 100 and inserts three multi-row batches. The statements commute.
	sessions := [2][]string{}
	for k := 0; k < 4; k++ {
		sessions[0] = append(sessions[0], fmt.Sprintf("delete from sales where region = %d", k))
	}
	sessions[1] = append(sessions[1], "update sales set region = 100 where region = 10")
	var inserted []int64
	for s := 0; s < 3; s++ {
		var vals []string
		for r := 0; r < 5; r++ {
			id := int64(1_000_000 + s*10 + r)
			inserted = append(inserted, id)
			vals = append(vals, fmt.Sprintf("(%d, 200, %d)", id, id%97))
		}
		sessions[1] = append(sessions[1], "insert into sales values "+strings.Join(vals, ", "))
	}

	pool, err := sql.Open("astdb", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, stmts := range sessions {
		conn, err := pool.Conn(ctx) // one driver session each
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, stmt := range stmts {
				if _, err := conn.ExecContext(ctx, stmt); err != nil {
					t.Errorf("%s: %v", stmt, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	perRegion, ids := map[int64]int{}, map[int64]int{}
	for _, r := range db.Store().MustTable("sales").Snapshot() {
		ids[r[0].Int()]++
		perRegion[r[1].Int()]++
	}
	for _, gone := range []int64{0, 1, 2, 3, 10} {
		if perRegion[gone] != 0 {
			t.Errorf("region %d still has %d rows: a DELETE/UPDATE was lost", gone, perRegion[gone])
		}
	}
	if perRegion[100] != n/regions {
		t.Errorf("region 100 has %d rows, want the %d that left region 10", perRegion[100], n/regions)
	}
	for _, id := range inserted {
		if ids[id] != 1 {
			t.Errorf("inserted id %d appears %d times, want 1", id, ids[id])
		}
	}
	for _, ca := range db.ASTs() {
		if st := db.Catalog().Status(ca.Def.Name); st.Stale || st.Quarantined {
			continue
		}
		want, err := exec.NewEngine(db.Store()).RunCtx(ctx, ca.Graph, exec.Config{})
		if err != nil {
			t.Fatalf("recompute %s: %v", ca.Def.Name, err)
		}
		got := &exec.Result{Cols: want.Cols, Rows: db.Store().MustTable(ca.Def.Name).Snapshot()}
		if diff := exec.EqualResults(want, got); diff != "" {
			t.Errorf("%s is FRESH AND WRONG: %s", ca.Def.Name, diff)
		}
	}
}

// TestSplicedSummaryTablesReadOneGenerationOverTheWire is the tear probe over
// two driver sessions: one inserts 64-row batches while the other reads, 3,000
// times, a join of two derived tables the planner splices to two summary
// tables. With amount always 1, sum(amount) = count(*) in every committed
// state, so no row read over the wire may have total ≠ cnt.
func TestSplicedSummaryTablesReadOneGenerationOverTheWire(t *testing.T) {
	db, _, addr := testEnv(t, Config{MaxConcurrent: 4, QueueDepth: 4})
	ctx := context.Background()
	if err := db.CreateTable(&catalog.Table{Name: "sales", Columns: []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "region", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, 4000)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 4)), sqltypes.NewInt(1)}
	}
	if _, err := db.Insert(ctx, "sales", rows); err != nil {
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
	const probe = `select a.region, a.total, b.cnt
		from (select region, sum(amount) as total from sales group by region) as a,
		     (select region, count(*) as cnt from sales group by region) as b
		where a.region = b.region`
	if ans, err := db.Query(ctx, probe); err != nil || len(ans.ASTs) != 2 {
		t.Fatalf("the probe is not served by both summary tables: %v, %v", err, ans)
	}

	pool, err := sql.Open("astdb", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	writer, err := pool.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := pool.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

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
			vals := make([]string, 64)
			for i := range vals {
				vals[i] = fmt.Sprintf("(%d, %d, 1)", next+i, (next+i)%4)
			}
			if _, err := writer.ExecContext(ctx, "insert into sales values "+strings.Join(vals, ", ")); err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()
	torn, read := 0, 0
	for i := 0; i < 3000; i++ {
		rs, err := reader.QueryContext(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
			var region, total, cnt int64
			if err := rs.Scan(&region, &total, &cnt); err != nil {
				t.Fatal(err)
			}
			if read++; total != cnt {
				if torn++; torn == 1 {
					t.Errorf("read %d, region %d: total %d ≠ cnt %d", i, region, total, cnt)
				}
			}
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d rows torn in 3,000 reads over the wire", torn, read)
	}
	if batches.Load() == 0 {
		t.Fatal("no batch was inserted during the reads")
	}
}
