package server

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"
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
		want, err := db.Execute(ctx, ca.Graph)
		if err != nil {
			t.Fatalf("recompute %s: %v", ca.Def.Name, err)
		}
		got := &exec.Result{Cols: want.Cols, Rows: db.Store().MustTable(ca.Def.Name).Snapshot()}
		if diff := exec.EqualResults(want, got); diff != "" {
			t.Errorf("%s is FRESH AND WRONG: %s", ca.Def.Name, diff)
		}
	}
}
