package astdb_test

// The writer slot: every mutating entry point of the engine is a
// read-modify-publish sequence over a base table and the summary tables that
// read it, and they take turns. These tests drive writers against each other
// (and against CreateSummaryTable) through the public entry points and check
// the two things an interleaving used to break: base rows are neither lost
// nor resurrected, and a summary table the catalog calls fresh equals a
// recompute of its definition.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/sqltypes"
	"repro/internal/wire"
)

const salesRegions = 16

// openSalesDB builds an engine over sales(id, region, amount) with n rows
// spread evenly over salesRegions regions, and three summary tables — one per
// maintenance route: subtracting merge, scoped MIN/MAX recompute, and full
// recompute.
func openSalesDB(t *testing.T, n int) *astdb.Engine {
	t.Helper()
	ctx := context.Background()
	db, err := astdb.Open(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&catalog.Table{
		Name: "sales",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "region", Type: sqltypes.KindInt},
			{Name: "amount", Type: sqltypes.KindInt},
		},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % salesRegions)), sqltypes.NewInt(int64(i*7919) % 1000),
		}
	}
	if _, err := db.Insert(ctx, "sales", rows); err != nil {
		t.Fatal(err)
	}
	for name, sql := range map[string]string{
		"byregion": `select region, sum(amount) as total, count(*) as cnt from sales group by region`,
		"extremes": `select region, count(*) as cnt, min(amount) as lo, max(amount) as hi from sales group by region`,
		"spread":   `select region, count(distinct amount) as d from sales group by region`,
	} {
		if _, _, err := db.CreateSummaryTable(ctx, name, sql); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// assertFreshMeansRight is the chaos suite's acceptance property on the
// facade: every summary table is either marked stale/quarantined or equal to a
// from-scratch evaluation of its definition.
func assertFreshMeansRight(t *testing.T, db *astdb.Engine) {
	t.Helper()
	for _, ca := range db.ASTs() {
		if st := db.Catalog().Status(ca.Def.Name); st.Stale || st.Quarantined {
			continue
		}
		want, err := db.Execute(context.Background(), ca.Graph)
		if err != nil {
			t.Fatalf("recompute %s: %v", ca.Def.Name, err)
		}
		got := &exec.Result{Cols: want.Cols, Rows: db.Store().MustTable(ca.Def.Name).Snapshot()}
		if diff := exec.EqualResults(want, got); diff != "" {
			t.Errorf("%s is FRESH AND WRONG: %s", ca.Def.Name, diff)
		}
	}
}

// salesByRegion counts the base table's rows per region and collects its ids.
func salesByRegion(db *astdb.Engine) (perRegion map[int64]int, ids map[int64]int) {
	perRegion, ids = map[int64]int{}, map[int64]int{}
	for _, r := range db.Store().MustTable("sales").Snapshot() {
		ids[r[0].Int()]++
		perRegion[r[1].Int()]++
	}
	return perRegion, ids
}

// salesWriters is the statement mix both concurrency tests run, one slice per
// writer: four DELETEs of disjoint regions, an UPDATE that moves region 10's
// rows into the new group 100, and two writers of multi-row INSERTs into
// regions of their own. The statements commute, so the final state is the
// same whatever order the engine runs them in. insertedIDs lists every id the
// INSERTs add.
func salesWriters() (writers [][]string, insertedIDs []int64) {
	for k := 0; k < 4; k++ {
		writers = append(writers, []string{fmt.Sprintf("delete from sales where region = %d", k)})
	}
	writers = append(writers, []string{"update sales set region = 100 where region = 10"})
	for w := 0; w < 2; w++ {
		var stmts []string
		for s := 0; s < 3; s++ {
			var vals []string
			for r := 0; r < 5; r++ {
				id := int64(1_000_000 + w*1000 + s*10 + r)
				insertedIDs = append(insertedIDs, id)
				vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, 200+w, id%97))
			}
			stmts = append(stmts, "insert into sales values "+strings.Join(vals, ", "))
		}
		writers = append(writers, stmts)
	}
	return writers, insertedIDs
}

// assertSalesOutcome checks the base table after salesWriters ran over an
// n-row openSalesDB: nothing deleted survives, nothing inserted is missing or
// doubled, the migrated group arrived whole.
func assertSalesOutcome(t *testing.T, db *astdb.Engine, n int, insertedIDs []int64) {
	t.Helper()
	perRegion, ids := salesByRegion(db)
	for _, gone := range []int64{0, 1, 2, 3, 10} {
		if perRegion[gone] != 0 {
			t.Errorf("region %d still has %d rows: a DELETE/UPDATE was lost", gone, perRegion[gone])
		}
	}
	if got, want := perRegion[100], n/salesRegions; got != want {
		t.Errorf("region 100 has %d rows, want the %d that left region 10", got, want)
	}
	for _, id := range insertedIDs {
		if ids[id] != 1 {
			t.Errorf("inserted id %d appears %d times, want 1", id, ids[id])
		}
	}
	if got, want := len(ids), n-4*(n/salesRegions)+len(insertedIDs); got != want {
		t.Errorf("sales has %d rows, want %d", got, want)
	}
}

// TestConcurrentWritersLoseNothing: seven writers issue DELETEs, an UPDATE and
// INSERTs through ExecStatement at once. Without the writer slot each takes a
// snapshot of sales, and the last Put wins: deletes are lost from the base
// table while the summary tables, merged from the deltas of all of them, stay
// fresh.
func TestConcurrentWritersLoseNothing(t *testing.T) {
	const n = 16000
	db := openSalesDB(t, n)
	writers, insertedIDs := salesWriters()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, stmts := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, sql := range stmts {
				if _, err := db.ExecStatement(context.Background(), sql); err != nil {
					t.Errorf("%s: %v", sql, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	assertSalesOutcome(t, db, n, insertedIDs)
	assertFreshMeansRight(t, db)
}

// TestCreateSummaryTableRacingWriter: a statement that lands between the
// materializing scan and the registration of a new summary table used to be
// merged into every table but the new one, which stayed fresh without it.
func TestCreateSummaryTableRacingWriter(t *testing.T) {
	db := openSalesDB(t, 16000)
	ctx := context.Background()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for id := int64(2_000_000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			sql := fmt.Sprintf("insert into sales values (%d, %d, %d), (%d, 300, 1)", id, id%salesRegions, id%89, id+5_000_000)
			if _, err := db.ExecStatement(ctx, sql); err != nil {
				t.Errorf("%s: %v", sql, err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("late%d", i)
		if _, _, err := db.CreateSummaryTable(ctx, name,
			`select region, count(*) as cnt, sum(amount) as total from sales group by region`); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-writerDone

	assertFreshMeansRight(t, db)
}

// TestQueuedWriterHonoursCancellation parks one DELETE inside its delta merge,
// queues a second behind it and cancels the second's context: it must come
// back with the typed canceled error having changed nothing, and the first
// must finish as if it had been alone.
func TestQueuedWriterHonoursCancellation(t *testing.T) {
	const n = 1600
	db := openSalesDB(t, n)
	faultinject.Enable(1)
	defer faultinject.Disable()
	const site = "maintain.delete:byregion"
	faultinject.Set(site, faultinject.Fault{Delay: time.Second, Times: 1})

	firstDone := make(chan error, 1)
	go func() {
		_, err := db.Delete(context.Background(), "delete from sales where region = 0")
		firstDone <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); faultinject.Fired(site) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first writer never reached its delta merge")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	res, err := db.ExecStatement(ctx, "delete from sales where region = 1")
	if res != nil || !errors.Is(err, astdb.ErrCanceled) {
		t.Fatalf("queued statement: res=%v err=%v, want nil and ErrCanceled", res, err)
	}
	if code := wire.CodeFor(err); code != wire.CodeCanceled {
		t.Fatalf("wire code %v, want %v", code, wire.CodeCanceled)
	}
	select {
	case err := <-firstDone:
		t.Fatalf("first writer finished (%v) before the queued one was canceled: nothing was queued", err)
	default:
	}

	if err := <-firstDone; err != nil {
		t.Fatalf("first writer: %v", err)
	}
	perRegion, _ := salesByRegion(db)
	if perRegion[0] != 0 {
		t.Errorf("region 0 still has %d rows: the first writer did not complete", perRegion[0])
	}
	if perRegion[1] != n/salesRegions {
		t.Errorf("region 1 has %d rows, want %d: the canceled statement mutated the base table", perRegion[1], n/salesRegions)
	}
	for _, ca := range db.ASTs() {
		if st := db.Catalog().Status(ca.Def.Name); st.Stale || st.Quarantined {
			t.Errorf("%s is %+v after a clean delete", ca.Def.Name, st)
		}
	}
	assertFreshMeansRight(t, db)
}
