package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// TestVectorEdgesMatchInterpreter runs statements that reach the vector
// path's uncommon arms — an operand's error, an all-NULL operand, a
// mixed-kind vector, a wide GROUP BY key, a sum that cannot be added — and
// requires the interpreter's rows or its error text, serially and at two
// workers. Each row is named by the arm it reaches. A SUM over dates is
// refused when the statement is built, before any row is read: refused holds
// those rows' error texts.
func TestVectorEdgesMatchInterpreter(t *testing.T) {
	cat, store := keyTable()
	engine := NewEngine(store)
	refused := map[string]string{
		"sum of dates":            "SUM over non-numeric argument (DATE)",
		"sum of dates, one group": "SUM over non-numeric argument (DATE)",
	}
	for _, r := range []struct{ name, sql string }{
		{"arith left error", "select g, n / 0 + 1 as v from k"},
		{"arith right error", "select g, 1 + n / 0 as v from k"},
		{"arith all-NULL side", "select g, n + null as v from k"},
		{"comparison as a value lifts", "select g, n > 1 as b from k"},
		{"date part argument error", "select g, year(n / 0) as v from k"},
		{"date part all-NULL argument", "select g, year(null) as v from k"},
		{"date part mixed-kind argument", "select g, year(case when g > 1 then e else 19990101 end) as v from k"},
		{"comparison left error", "select g from k where n / 0 > 1"},
		{"comparison right error", "select g from k where 1 < n / 0"},
		{"lifted predicate error", "select g from k where not (n / 0 > 1)"},
		{"key set of constants that do not compare", "select g from k where (case when g > 100 then null end) in (1, 'a')"},
		{"group key of five columns", "select g, d, n, s, x, count(*) as c from k group by g, d, n, s, x"},
		{"group key error", "select n / 0 as q, count(*) as c from k group by n / 0"},
		{"aggregate argument error", "select g, sum(n / 0) as c from k group by g"},
		{"join key error", "select a.g, b.d from k a, k b where a.n / 0 = b.g"},
		{"sum of dates", "select g, sum(e) as c from k group by g"},
		{"sum of dates, one group", "select sum(d) as c from k"},
		{"sum of a mixed-kind argument", "select g, sum(case when g <= 1 then 1 else e end) as c from k group by g"},
	} {
		t.Run(r.name, func(t *testing.T) {
			g, err := qgm.BuildSQL(r.sql, cat)
			if want := refused[r.name]; want != "" || err != nil {
				if want == "" || err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: %v, want a refusal containing %q", r.sql, err, want)
				}
				return
			}
			want, wantErr := engine.RunCtx(context.Background(), g, Config{Interpret: true})
			for _, par := range []int{1, 2} {
				got, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
				switch {
				case wantErr != nil || err != nil:
					if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s (parallelism %d): error %v, interpreter's %v", r.sql, par, err, wantErr)
					}
				case EqualResults(got, want) != "":
					t.Fatalf("%s (parallelism %d): %s", r.sql, par, EqualResults(got, want))
				}
			}
		})
	}
}

// TestFilterStopsAtAConjunctsError: a DML WHERE reaches Filter whole, so its
// ANDs are compiled there, and the first conjunct's error is the statement's.
func TestFilterStopsAtAConjunctsError(t *testing.T) {
	cat, store := keyTable()
	stmt, err := parser.ParseStatement("delete from k where n / 0 > 1 and g > 0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := qgm.BuildDelete(stmt.(*parser.DeleteStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	chunks, _ := store.MustTable("k").SnapshotChunks()
	err = Filter(d.Q, chunks, nil, []qgm.Expr{d.Where}, nil, nil, func(*storage.Chunk, int, []int32, []*sqltypes.Vec) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Filter: %v, want the division's error", err)
	}
}

// TestParallelWorkerPanicIsOneError: a panic in a worker is recovered and
// returned as the run's one error; when several workers fail, the lowest
// partition's error wins.
func TestParallelWorkerPanicIsOneError(t *testing.T) {
	ev := testEvaluator(storage.NewStore(), nil)
	err := ev.parallelChunks(8, 4, func(w, lo, hi int, chg *charger) error {
		if w >= 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "exec: parallel worker 2 panicked: boom" {
		t.Fatalf("parallelChunks: %v", err)
	}
}

// TestEqualResultsNamesTheFirstDifference: shapes that differ, and a column
// whose values Compare cannot order (sorted by their group keys instead).
func TestEqualResultsNamesTheFirstDifference(t *testing.T) {
	i, s := sqltypes.NewInt(1), sqltypes.NewString("a")
	res := func(cols []string, rows ...[]sqltypes.Value) *Result { return &Result{Cols: cols, Rows: rows} }
	one, two := []string{"a"}, []string{"a", "b"}
	for _, c := range []struct {
		a, b *Result
		want string
	}{
		{res(one, []sqltypes.Value{i}, []sqltypes.Value{s}), res(one, []sqltypes.Value{s}, []sqltypes.Value{i}), ""},
		{res(one, []sqltypes.Value{i}), res(two, []sqltypes.Value{i, i}), "column count differs: 1 vs 2"},
		{res(one, []sqltypes.Value{i}), res(one), "row count differs: 1 vs 0"},
		{res(one, []sqltypes.Value{i}), res(one, []sqltypes.Value{i, i}), "row 0: arity differs"},
		{res(one, []sqltypes.Value{i}), res(one, []sqltypes.Value{s}), "row 0 col 0"},
	} {
		if got := EqualResults(c.a, c.b); !strings.HasPrefix(got, c.want) || (c.want == "") != (got == "") {
			t.Errorf("EqualResults(%v, %v) = %q, want %q", c.a.Rows, c.b.Rows, got, c.want)
		}
	}
}
