package astdb_test

// The engine's set of summary tables is the one record of which exist: every
// reader and every name check reads it. These tests drive the ways a second
// record used to disagree with it — a refused name that still changed the
// pruning index, a name shared with a base table, a reader that pinned the
// store before it loaded the set — and a broken definition refused alone.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// TestRefusedNameChangesNothing: each statement below is refused before
// anything is compiled, written or published, and afterwards s_cnt still
// serves its own definition, a total over sales and the per-region counts,
// and sales still takes an INSERT. A refused duplicate used to overwrite
// s_cnt's pruning signature (both queries then took the base plan); a summary
// table named sales replaced the base table; CreateTable("s_cnt") emptied the
// summary table while it stayed fresh (0 rows served instead of 4).
func TestRefusedNameChangesNothing(t *testing.T) {
	ctx := context.Background()
	const other = `select region, count(*) as cnt from other group by region`
	for name, refuse := range map[string]func(db *astdb.Engine) error{
		"duplicate": func(db *astdb.Engine) error {
			_, _, err := db.CreateSummaryTable(ctx, "s_cnt", other)
			return err
		},
		"duplicate in other case": func(db *astdb.Engine) error {
			_, _, err := db.CreateSummaryTable(ctx, "S_Cnt", other)
			return err
		},
		"summary table named like a base table": func(db *astdb.Engine) error {
			_, _, err := db.CreateSummaryTable(ctx, "Sales", `select region, count(*) as cnt from sales group by region`)
			return err
		},
		"base table named like a summary table": func(db *astdb.Engine) error {
			return db.CreateTable(&catalog.Table{Name: "S_CNT", Columns: []catalog.Column{{Name: "region", Type: sqltypes.KindInt}}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			db := openTearDB(t)
			if err := db.CreateTable(&catalog.Table{Name: "other", Columns: []catalog.Column{
				{Name: "region", Type: sqltypes.KindInt},
			}}); err != nil {
				t.Fatal(err)
			}
			if err := refuse(db); err == nil {
				t.Fatal("accepted")
			}
			if got := len(db.ASTs()); got != 2 {
				t.Fatalf("%d summary tables after the refusal, want 2", got)
			}
			own := `select region, count(*) as cnt from sales group by region`
			rep, err := db.Explain(ctx, own)
			if err != nil || !slices.ContainsFunc(rep.Candidates, func(c astdb.Candidate) bool { return c.AST == "s_cnt" && c.Matched }) {
				t.Fatalf("s_cnt's own definition: %+v, %v; want s_cnt to match it", rep, err)
			}
			for q, want := range map[string]int{
				`select count(*) as n from sales`: 1,
				own:                               4,
			} {
				ans, err := db.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if strings.Join(ans.ASTs, ",") != "s_cnt" || ans.FellBack || len(ans.Rows()) != want {
					t.Fatalf("%s read %v (fell back %v) and returned %v, want %d row(s) from s_cnt",
						q, ans.ASTs, ans.FellBack, ans.Rows(), want)
				}
				if want == 1 && ans.Rows()[0][0].Int() != 4000 {
					t.Fatalf("count(*) from sales = %v, want 4000", ans.Rows()[0][0])
				}
			}
			if _, err := db.Insert(ctx, "sales", salesBatch(4000, 4)); err != nil {
				t.Fatalf("INSERT into sales: %v", err)
			}
			assertFreshMeansRight(t, db)
		})
	}
}

// TestReadersSeeOnlyCommittedSummaryTables: readers through the plan cache
// (Query) and around it (Explain) run beside repeated CreateSummaryTable
// calls. A reader that pinned its generation before it loaded the set could
// plan on a table published after its pin, which the cost model sizes at 0
// rows (the cheapest candidate), and fail to read it: Query falls back and
// marks the new table stale, Explain reports the failure. No read may fail or
// fall back and no table may end stale.
func TestReadersSeeOnlyCommittedSummaryTables(t *testing.T) {
	const rounds, perRound, readers = 20, 50, 4
	const q = `select region, count(*) as cnt from sales group by region`
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
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
		if _, err := db.Insert(ctx, "sales", salesBatch(0, 256)); err != nil {
			t.Fatal(err)
		}
		var fellBack atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 1 {
						rep, err := db.Explain(ctx, q)
						if err != nil || rep.ExecError != "" {
							t.Errorf("explain: %v, %+v", err, rep)
							return
						}
						continue
					}
					ans, err := db.Query(ctx, q)
					if err != nil {
						t.Error(err)
						return
					}
					if ans.FellBack {
						fellBack.Add(1)
					}
				}
			}()
		}
		for k := 0; k < perRound; k++ {
			if _, _, err := db.CreateSummaryTable(ctx, fmt.Sprintf("c%d", k), q); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
		var stale []string
		for _, ca := range db.ASTs() {
			if db.Catalog().Status(ca.Def.Name).Stale {
				stale = append(stale, ca.Def.Name)
			}
		}
		if n := fellBack.Load(); n > 0 || len(stale) > 0 {
			t.Fatalf("round %d: %d read(s) fell back and %v ended stale: a reader planned on a table its generation lacks", round, n, stale)
		}
	}
}

// TestBrokenDefinitionIsRefusedAlone: a definition that does not parse and
// one over a missing table are each refused with an error naming them, and
// the summary tables created before them keep serving their queries.
func TestBrokenDefinitionIsRefusedAlone(t *testing.T) {
	db := openTinyDB(t)
	ctx := context.Background()
	defs := []struct{ name, sql string }{
		{"good1", `select region, sum(amount) as total, count(*) as cnt from sales group by region`},
		{"broken_syntax", `select from where`},
		{"broken_table", `select x from no_such_table`},
		{"good2", `select count(*) as cnt, sum(amount) as total from sales`},
	}
	for _, d := range defs {
		_, _, err := db.CreateSummaryTable(ctx, d.name, d.sql)
		if broken := strings.HasPrefix(d.name, "broken"); broken != (err != nil) {
			t.Fatalf("%s: err = %v", d.name, err)
		} else if broken && !strings.Contains(err.Error(), d.name) {
			t.Fatalf("%s: the error does not name the definition: %v", d.name, err)
		}
	}
	if got := len(db.ASTs()); got != 2 {
		t.Fatalf("%d summary tables, want the two good ones", got)
	}
	for q, table := range map[string]string{
		`select region, sum(amount) as total from sales group by region`: "good1",
		`select sum(amount) as total from sales`:                         "good2",
	} {
		ans, err := db.Query(ctx, q)
		if err != nil || ans.FellBack || strings.Join(ans.ASTs, ",") != table {
			t.Fatalf("%s: %+v, %v; want it served by %s", q, ans, err, table)
		}
		if diff := exec.EqualResults(baseResult(t, db, q), ans.Result()); diff != "" {
			t.Fatalf("%s: served rows differ from the base plan: %s", q, diff)
		}
	}
}
