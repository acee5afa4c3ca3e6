package astdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

// plainEnv builds an engine over the demo star schema with no summary
// tables (for legs whose limits would break materialization).
func plainEnv(t *testing.T, opts ...astdb.Option) *astdb.Engine {
	t.Helper()
	cat := catalog.New()
	db, err := astdb.Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 500, Seed: 7})
	return db
}

// errEnv builds an engine over the demo star schema with one summary table.
func errEnv(t *testing.T, opts ...astdb.Option) *astdb.Engine {
	t.Helper()
	cat := catalog.New()
	db, err := astdb.Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 500, Seed: 7})
	if _, _, err := db.CreateSummaryTable(context.Background(),
		"byloc", `select flid, count(*) as cnt from trans group by flid`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTypedErrorSurface locks the errors.Is classification contract the wire
// server and driver build on: every failure class matches exactly one
// sentinel.
func TestTypedErrorSurface(t *testing.T) {
	db := errEnv(t)
	ctx := context.Background()
	sentinels := []struct {
		name string
		err  error
	}{
		{"parse", astdb.ErrParse},
		{"unknown-table", astdb.ErrUnknownTable},
		{"write-protected", astdb.ErrWriteProtected},
		{"budget", astdb.ErrBudgetExceeded},
		{"canceled", astdb.ErrCanceled},
		{"overloaded", astdb.ErrOverloaded},
	}
	check := func(t *testing.T, err error, want error) {
		t.Helper()
		if err == nil {
			t.Fatal("want an error")
		}
		for _, s := range sentinels {
			if got := errors.Is(err, s.err); got != (s.err == want) {
				t.Fatalf("errors.Is(%v, %s) = %v", err, s.name, got)
			}
		}
	}

	t.Run("parse", func(t *testing.T) {
		_, err := db.Query(ctx, "select from where")
		check(t, err, astdb.ErrParse)
	})
	t.Run("bind", func(t *testing.T) {
		// Unknown column is a compile error, not an unknown table.
		_, err := db.Query(ctx, "select nocol from trans")
		check(t, err, astdb.ErrParse)
	})
	// A value its column refuses is the statement's fault, on every write route.
	for _, c := range []struct{ name, sql string }{
		{"insert-bad-date", "insert into trans values (900001, 1, 1, 9, '1995-13-04', 5, 9.5, 0.1)"},
		{"insert-int-date", "insert into trans values (900001, 1, 1, 9, 19951399, 5, 9.5, 0.1)"},
		{"insert-null", "insert into trans values (900001, 1, 1, 9, '1995-01-04', NULL, 9.5, 0.1)"},
		{"insert-wrong-kind", "insert into trans values (900001, 'x', 1, 9, '1995-01-04', 5, 9.5, 0.1)"},
		{"insert-arity", "insert into trans values (900001, 1)"},
		{"update-null", "update trans set qty = NULL where tid = 1"},
		{"update-bad-date", "update trans set date = 19951399 where tid = 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := db.ExecStatement(ctx, c.sql)
			check(t, err, astdb.ErrParse)
		})
	}
	t.Run("insert-api-null", func(t *testing.T) {
		_, err := db.Insert(ctx, "loc", [][]sqltypes.Value{{sqltypes.Null, sqltypes.NewString("a"), sqltypes.NewString("b"), sqltypes.NewString("c")}})
		check(t, err, astdb.ErrParse)
	})
	t.Run("unknown-table-query", func(t *testing.T) {
		_, err := db.Query(ctx, "select a from nosuch")
		check(t, err, astdb.ErrUnknownTable)
	})
	t.Run("unknown-table-insert", func(t *testing.T) {
		_, err := db.Insert(ctx, "nosuch", [][]sqltypes.Value{{sqltypes.NewInt(1)}})
		check(t, err, astdb.ErrUnknownTable)
	})
	t.Run("unknown-table-delete", func(t *testing.T) {
		_, err := db.Delete(ctx, "delete from nosuch")
		check(t, err, astdb.ErrUnknownTable)
	})
	t.Run("write-protected-dml", func(t *testing.T) {
		_, err := db.Update(ctx, "update byloc set cnt = 0")
		check(t, err, astdb.ErrWriteProtected)
	})
	t.Run("write-protected-insert", func(t *testing.T) {
		_, err := db.ExecStatement(ctx, "insert into byloc values (1, 1)")
		check(t, err, astdb.ErrWriteProtected)
	})
	t.Run("budget", func(t *testing.T) {
		small := plainEnv(t, astdb.WithLimits(astdb.Config{MaxRows: 3}))
		_, err := small.Query(ctx, "select tid from trans")
		check(t, err, astdb.ErrBudgetExceeded)
	})
	t.Run("canceled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err := db.Query(cctx, "select tid from trans")
		check(t, err, astdb.ErrCanceled)
	})
	t.Run("timeout-is-canceled", func(t *testing.T) {
		slow := plainEnv(t, astdb.WithLimits(astdb.Config{Timeout: time.Nanosecond}))
		_, err := slow.Query(ctx, "select tid from trans")
		check(t, err, astdb.ErrCanceled)
	})
	t.Run("overloaded", func(t *testing.T) {
		// The gate's typed rejection is part of the same surface.
		g := exec.NewGate(1, 0)
		release, err := g.Enter(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		_, err = g.Enter(ctx)
		check(t, err, astdb.ErrOverloaded)
	})
}

// TestExecStatementDispatch covers the statement entry point the server's
// exec message maps to.
func TestExecStatementDispatch(t *testing.T) {
	db := errEnv(t)
	ctx := context.Background()

	res, err := db.ExecStatement(ctx, "insert into loc values (999, 'Nowhere', 'XX', 'Utopia')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 || res.Table != "loc" {
		t.Fatalf("insert: got %+v", res)
	}

	res, err = db.ExecStatement(ctx, "delete from loc where lid = 999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("delete affected %d, want 1", res.Affected)
	}

	res, err = db.ExecStatement(ctx, "update trans set qty = qty where tid < 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 0 {
		t.Fatalf("no-op update affected %d", res.Affected)
	}

	if _, err := db.ExecStatement(ctx, "select tid from trans"); !errors.Is(err, astdb.ErrParse) {
		t.Fatalf("SELECT through ExecStatement: want ErrParse, got %v", err)
	}
}
