// Conformance suite for the database/sql driver: the wire round-trip must
// behave like the in-process engine — identical rows for the paper suite,
// identical error classification under errors.Is, and the standard
// database/sql contracts (pooling under race, mid-query cancellation,
// prepared statements, column type introspection).
package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/astdb"
	astdriver "repro/astdb/driver"
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqltypes"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testServer is one running wire server over a star-schema engine with the
// paper's ast6 and ast7 summary tables registered.
type testServer struct {
	db   *astdb.Engine
	srv  *server.Server
	obsv *obs.Observer
	addr string
}

func startServer(t *testing.T, cfg server.Config) *testServer {
	t.Helper()
	cat := catalog.New()
	obsv := obs.New()
	db, err := astdb.Open(cat, astdb.WithObserver(obsv))
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 600, Seed: 3})
	for _, name := range []string{"ast6", "ast7"} {
		if _, _, err := db.CreateSummaryTable(context.Background(), name, bench.ASTDefs[name]); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(db, cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return &testServer{db: db, srv: s, obsv: obsv, addr: addr.String()}
}

func (ts *testServer) open(t *testing.T) *sql.DB {
	t.Helper()
	db, err := sql.Open("astdb", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// scanAll drains a *sql.Rows into generic values.
func scanAll(t *testing.T, rows *sql.Rows) [][]any {
	t.Helper()
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]any
	for rows.Next() {
		row := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// asDriverValue mirrors the driver's value mapping for comparison against
// in-process results.
func asDriverValue(t *testing.T, v sqltypes.Value) any {
	t.Helper()
	switch v.Kind() {
	case sqltypes.KindNull:
		return nil
	case sqltypes.KindInt:
		return v.Int()
	case sqltypes.KindFloat:
		return v.Float()
	case sqltypes.KindString:
		return v.Str()
	case sqltypes.KindBool:
		return v.Bool()
	case sqltypes.KindDate:
		return time.Date(int(v.DateYear()), time.Month(v.DateMonth()), int(v.DateDay()), 0, 0, 0, 0, time.UTC)
	default:
		t.Fatalf("unmappable kind %v", v.Kind())
		return nil
	}
}

// TestPaperSuiteIdenticalRows is the acceptance contract: paper-suite
// queries through sql.Open("astdb", ...) return exactly the rows the
// in-process engine returns — including the ones served by summary-table
// rewrites (q4 over ast6, q7 over ast7).
func TestPaperSuiteIdenticalRows(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	ctx := context.Background()
	for _, name := range []string{"q1", "q4", "q7", "q8", "q11_1"} {
		q := bench.Queries[name]
		t.Run(name, func(t *testing.T) {
			rows, err := db.QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got := scanAll(t, rows)
			want, err := ts.db.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Rows()) {
				t.Fatalf("driver %d rows, in-process %d", len(got), len(want.Rows()))
			}
			for r := range got {
				for c := range got[r] {
					wv := asDriverValue(t, want.Rows()[r][c])
					if !reflect.DeepEqual(got[r][c], wv) {
						t.Fatalf("row %d col %d: driver %#v, in-process %#v", r, c, got[r][c], wv)
					}
				}
			}
		})
	}
	// q4 and q7 must actually have been rewrite-served, or the parity above
	// proves less than it claims.
	for q, ast := range map[string]string{"q4": "ast6", "q7": "ast7"} {
		ans, err := ts.db.Query(ctx, bench.Queries[q])
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(ans.ASTs, ",") != ast {
			t.Fatalf("%s routed to %q, want %q", q, strings.Join(ans.ASTs, ","), ast)
		}
	}
}

func TestPlaceholdersAndExec(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	ctx := context.Background()

	t.Run("query-args", func(t *testing.T) {
		rows, err := db.QueryContext(ctx,
			`select flid, count(*) as cnt from trans where qty > ? and date >= ? group by flid`,
			2, time.Date(1993, 6, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		got := scanAll(t, rows)
		want, err := ts.db.Query(ctx,
			`select flid, count(*) as cnt from trans where qty > 2 and date >= DATE '1993-06-01' group by flid`)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Rows()) {
			t.Fatalf("interpolated query: %d rows, want %d", len(got), len(want.Rows()))
		}
	})

	t.Run("exec-args-and-quote-escaping", func(t *testing.T) {
		res, err := db.ExecContext(ctx, `insert into loc values (?, ?, ?, ?)`,
			7001, "O'Fallon", "MO", "USA")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.RowsAffected(); n != 1 {
			t.Fatalf("insert affected %d", n)
		}
		var city string
		if err := db.QueryRowContext(ctx, `select city from loc where lid = ?`, 7001).Scan(&city); err != nil {
			t.Fatal(err)
		}
		if city != "O'Fallon" {
			t.Fatalf("quoted string round-trip: %q", city)
		}
		res, err = db.ExecContext(ctx, `delete from loc where lid = ?`, 7001)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.RowsAffected(); n != 1 {
			t.Fatalf("delete affected %d", n)
		}
	})

	t.Run("prepared-statement", func(t *testing.T) {
		stmt, err := db.PrepareContext(ctx, `select count(*) as c from trans where qty >= ?`)
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		prev := int64(1 << 40)
		for qty := 0; qty <= 2; qty++ {
			var c int64
			if err := stmt.QueryRowContext(ctx, qty).Scan(&c); err != nil {
				t.Fatal(err)
			}
			if c == 0 || c > prev {
				t.Fatalf("count(qty >= %d) = %d, previous %d", qty, c, prev)
			}
			prev = c
		}
	})

	t.Run("named-args-rejected", func(t *testing.T) {
		_, err := db.QueryContext(ctx, `select count(*) as c from trans where qty > :n`, sql.Named("n", 1))
		if err == nil || !strings.Contains(err.Error(), "named parameter") {
			t.Fatalf("named arg accepted: %v", err)
		}
	})

	t.Run("transactions-rejected", func(t *testing.T) {
		if _, err := db.BeginTx(ctx, nil); err == nil {
			t.Fatal("BeginTx succeeded against a non-transactional engine")
		}
	})
}

func TestColumnTypes(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	rows, err := db.QueryContext(context.Background(),
		`select tid, price, city, date from trans, loc where flid = lid and qty > 0`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		dbType string
		scan   reflect.Type
	}{
		{"INTEGER", reflect.TypeOf(int64(0))},
		{"DOUBLE", reflect.TypeOf(float64(0))},
		{"VARCHAR", reflect.TypeOf("")},
		{"DATE", reflect.TypeOf(time.Time{})},
	}
	if len(cts) != len(want) {
		t.Fatalf("%d column types", len(cts))
	}
	for i, ct := range cts {
		if ct.DatabaseTypeName() != want[i].dbType {
			t.Fatalf("col %d type %q, want %q", i, ct.DatabaseTypeName(), want[i].dbType)
		}
		if ct.ScanType() != want[i].scan {
			t.Fatalf("col %d scan type %v, want %v", i, ct.ScanType(), want[i].scan)
		}
		if nullable, ok := ct.Nullable(); !ok || !nullable {
			t.Fatalf("col %d not reported nullable", i)
		}
	}
}

// TestColumnKindsAreTrue: a column whose values are of two kinds reports
// ScanType any and no type name, so a client that scans each column into a
// value of its ScanType reads every row. Column x is qty (INTEGER) on some
// rows and price (DOUBLE) on others; the header names only the first.
func TestColumnKindsAreTrue(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	rows, err := db.QueryContext(context.Background(),
		`select tid, case when qty > 3 then qty else price end as x from trans where tid < 30`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	anyType := reflect.TypeOf(new(any)).Elem()
	if cts[0].ScanType() != reflect.TypeOf(int64(0)) || cts[0].DatabaseTypeName() != "INTEGER" {
		t.Fatalf("tid: scan type %v, type name %q", cts[0].ScanType(), cts[0].DatabaseTypeName())
	}
	if cts[1].ScanType() != anyType || cts[1].DatabaseTypeName() != "" {
		t.Fatalf("x: scan type %v, type name %q; want any and none", cts[1].ScanType(), cts[1].DatabaseTypeName())
	}
	seen := map[reflect.Type]bool{}
	for rows.Next() {
		dest := []any{reflect.New(cts[0].ScanType()).Interface(), reflect.New(cts[1].ScanType()).Interface()}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		seen[reflect.TypeOf(*dest[1].(*any))] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !seen[reflect.TypeOf(int64(0))] || !seen[reflect.TypeOf(float64(0))] {
		t.Fatalf("x read as %v: the query must mix INTEGER and DOUBLE values", seen)
	}
}

// TestErrorSurfaceAcrossWire: errors.Is against the astdb sentinels holds on
// the client side of the wire exactly as it does in-process.
func TestErrorSurfaceAcrossWire(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() error
		want error
	}{
		{"parse", func() error {
			_, err := db.QueryContext(ctx, `select from where`)
			return err
		}, astdb.ErrParse},
		{"unknown-table", func() error {
			_, err := db.QueryContext(ctx, `select x from ghost`)
			return err
		}, astdb.ErrUnknownTable},
		{"write-protected", func() error {
			_, err := db.ExecContext(ctx, `delete from ast6`)
			return err
		}, astdb.ErrWriteProtected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("wire error type lost: %v", err)
			}
		})
	}
}

// TestMidQueryCancelClosesSession: canceling the context while a response is
// outstanding returns ctx.Err() and closes the underlying session — the
// protocol's only cancel signal. A hanging server makes the timing
// deterministic: the query cannot complete until the test cancels.
func TestMidQueryCancelClosesSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan struct{})
	closed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			closed <- err
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadFrame(conn); err != nil {
			closed <- err
			return
		}
		close(received)
		_, _, err = wire.ReadFrame(conn) // hang until the client closes
		closed <- err
	}()

	db, err := sql.Open("astdb", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-received
		cancel()
	}()
	_, qerr := db.QueryContext(ctx, `select count(*) as c from trans`)
	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("canceled query returned %v", qerr)
	}
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("session socket still open after cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session socket not closed after cancel")
	}
}

// TestPoolRecoversAfterCancel: after a cancellation kills a session, the
// pool opens a fresh one and later queries succeed.
func TestPoolRecoversAfterCancel(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	db.SetMaxOpenConns(1) // force reuse of the single (now dead) slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, bench.Queries["q4"]); err == nil {
		t.Fatal("pre-canceled query succeeded")
	}
	var year, value = int64(0), 0.0
	row := db.QueryRowContext(context.Background(),
		`select year(date) as year, sum(qty * price) as value from trans group by year(date) having year(date) = 1990`)
	if err := row.Scan(&year, &value); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	if year != 1990 || value <= 0 {
		t.Fatalf("recovered query got (%d, %f)", year, value)
	}
}

// TestConcurrentPool hammers one server through a pooled *sql.DB from many
// goroutines; run under -race this is the session-isolation check.
func TestConcurrentPool(t *testing.T) {
	ts := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 256})
	db := ts.open(t)
	db.SetMaxOpenConns(16)
	ctx := context.Background()

	var wantCount int64
	if err := db.QueryRowContext(ctx, `select count(*) as c from trans`).Scan(&wantCount); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					var c int64
					if err := db.QueryRowContext(ctx, `select count(*) as c from trans`).Scan(&c); err != nil {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					if c != wantCount {
						errs <- fmt.Errorf("worker %d read count %d, want %d", w, c, wantCount)
						return
					}
				case 1:
					rows, err := db.QueryContext(ctx, bench.Queries["q4"])
					if err != nil {
						errs <- fmt.Errorf("worker %d q4: %w", w, err)
						return
					}
					if got := scanAll(t, rows); len(got) == 0 {
						errs <- fmt.Errorf("worker %d q4 empty", w)
						return
					}
				default:
					var c int64
					if err := db.QueryRowContext(ctx,
						`select count(*) as c from trans where qty >= ?`, w%3).Scan(&c); err != nil {
						errs <- fmt.Errorf("worker %d args: %w", w, err)
						return
					}
					if c == 0 || c > wantCount {
						errs <- fmt.Errorf("worker %d filtered count %d out of range", w, c)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDSNParsing(t *testing.T) {
	for _, tc := range []struct {
		dsn     string
		addr    string
		timeout time.Duration
		bad     bool
	}{
		{dsn: "127.0.0.1:5433", addr: "127.0.0.1:5433", timeout: 10 * time.Second},
		{dsn: "astdb://db.example:9}", bad: true},
		{dsn: "astdb://db.example:9", addr: "db.example:9", timeout: 10 * time.Second},
		{dsn: "localhost:1?dial_timeout=2s", addr: "localhost:1", timeout: 2 * time.Second},
		{dsn: "localhost:1?dial_timeout=bogus", bad: true},
		{dsn: "localhost:1?mystery=1", bad: true},
		{dsn: "no-port", bad: true},
	} {
		cfg, err := astdriver.ParseDSN(tc.dsn)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseDSN(%q) accepted", tc.dsn)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDSN(%q): %v", tc.dsn, err)
			continue
		}
		if cfg.Addr != tc.addr || cfg.DialTimeout != tc.timeout {
			t.Errorf("ParseDSN(%q) = %+v", tc.dsn, cfg)
		}
	}
}

func TestPingAndShutdown(t *testing.T) {
	ts := startServer(t, server.Config{})
	db := ts.open(t)
	ctx := context.Background()
	if err := db.PingContext(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := db.PingContext(ctx); err == nil {
		t.Fatal("ping succeeded against a stopped server")
	}
}
