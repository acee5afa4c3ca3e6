package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testEnv starts a server over a small star-schema engine with one summary
// table and returns the engine, server, and dial address. The server is shut
// down at test end.
func testEnv(t *testing.T, cfg Config, opts ...astdb.Option) (*astdb.Engine, *Server, string) {
	t.Helper()
	cat := catalog.New()
	opts = append([]astdb.Option{astdb.WithObserver(obs.New())}, opts...)
	db, err := astdb.Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: 400, Seed: 11})
	if _, _, err := db.CreateSummaryTable(context.Background(),
		"byloc", `select flid, count(*) as cnt, sum(qty) as sq from trans group by flid`); err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return db, s, addr.String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTrip sends one request frame and reads the response.
func roundTrip(t *testing.T, conn net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rtyp, rp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rp
}

func TestServerRoundTrip(t *testing.T) {
	db, _, addr := testEnv(t, Config{})
	conn := dial(t, addr)
	ctx := context.Background()

	t.Run("ping", func(t *testing.T) {
		if typ, _ := roundTrip(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
			t.Fatalf("ping answered %#x", typ)
		}
	})

	const q = `select flid, count(*) as cnt from trans group by flid`
	t.Run("query-identical-to-in-process", func(t *testing.T) {
		typ, p := roundTrip(t, conn, wire.MsgQuery, wire.EncodeString(q))
		if typ != wire.MsgRows {
			t.Fatalf("query answered %#x: %s", typ, p)
		}
		got, err := wire.DecodeRows(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.AST != "byloc" || got.AST != strings.Join(want.ASTs, ",") {
			t.Fatalf("routing: wire AST %q, in-process %q", got.AST, strings.Join(want.ASTs, ","))
		}
		gotRows := storage.Rows(got.Chunks, got.Chunks[0].Len())
		if len(gotRows) != want.Len() {
			t.Fatalf("wire %d rows, in-process %d", len(gotRows), want.Len())
		}
		for r, row := range gotRows {
			for c, v := range row {
				if !sqltypes.Identical(v, want.Rows()[r][c]) {
					t.Fatalf("row %d col %d: %v != %v", r, c, v, want.Rows()[r][c])
				}
			}
		}
		if got.Kinds[0] != sqltypes.KindInt || got.Kinds[1] != sqltypes.KindInt {
			t.Fatalf("inferred kinds %v", got.Kinds)
		}
	})

	t.Run("exec-insert-and-delete", func(t *testing.T) {
		typ, p := roundTrip(t, conn, wire.MsgExec,
			wire.EncodeString(`insert into loc values (9001, 'Nowhere', 'XX', 'Utopia')`))
		if typ != wire.MsgExecOK {
			t.Fatalf("insert answered %#x: %s", typ, p)
		}
		ok, err := wire.DecodeExecOK(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok.Table != "loc" || ok.Affected != 1 {
			t.Fatalf("insert result %+v", ok)
		}
		typ, p = roundTrip(t, conn, wire.MsgExec, wire.EncodeString(`delete from loc where lid = 9001`))
		if typ != wire.MsgExecOK {
			t.Fatalf("delete answered %#x: %s", typ, p)
		}
		if ok, _ = wire.DecodeExecOK(p); ok.Affected != 1 {
			t.Fatalf("delete result %+v", ok)
		}
	})

	t.Run("exec-maintenance-rendered", func(t *testing.T) {
		typ, p := roundTrip(t, conn, wire.MsgExec,
			wire.EncodeString(`insert into trans values (99001, 1, 1, 1, '1999-01-01', 3, 1.5, 0.0)`))
		if typ != wire.MsgExecOK {
			t.Fatalf("insert answered %#x: %s", typ, p)
		}
		ok, err := wire.DecodeExecOK(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ok.Maintenance, "byloc") {
			t.Fatalf("maintenance text lacks AST name: %q", ok.Maintenance)
		}
	})

	t.Run("explain-select-and-dml", func(t *testing.T) {
		typ, p := roundTrip(t, conn, wire.MsgExplain, wire.EncodeString(q))
		if typ != wire.MsgText {
			t.Fatalf("explain answered %#x: %s", typ, p)
		}
		text, err := wire.DecodeString(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "byloc") {
			t.Fatalf("explain text lacks routing: %q", text)
		}
		typ, p = roundTrip(t, conn, wire.MsgExplain, wire.EncodeString(`delete from trans where qty < 0`))
		if typ != wire.MsgText {
			t.Fatalf("explain dml answered %#x: %s", typ, p)
		}
		if text, _ = wire.DecodeString(p); !strings.Contains(text, "byloc") {
			t.Fatalf("dml explain lacks maintenance routing: %q", text)
		}
	})

	t.Run("obs-snapshot", func(t *testing.T) {
		typ, p := roundTrip(t, conn, wire.MsgObs, nil)
		if typ != wire.MsgText {
			t.Fatalf("obs answered %#x", typ)
		}
		text, err := wire.DecodeString(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, CtrRequests) {
			t.Fatalf("snapshot lacks server counters: %q", text)
		}
	})

	t.Run("typed-errors", func(t *testing.T) {
		for _, tc := range []struct {
			sql  string
			want error
		}{
			{`select nope from`, astdb.ErrParse},
			{`select x from ghost`, astdb.ErrUnknownTable},
		} {
			typ, p := roundTrip(t, conn, wire.MsgQuery, wire.EncodeString(tc.sql))
			if typ != wire.MsgError {
				t.Fatalf("%q answered %#x", tc.sql, typ)
			}
			werr, err := wire.DecodeError(p)
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(werr, tc.want) {
				t.Fatalf("%q classified as %v, want %v", tc.sql, werr.Code, tc.want)
			}
		}
		// DML against the summary table is write-protected.
		typ, p := roundTrip(t, conn, wire.MsgExec, wire.EncodeString(`delete from byloc`))
		werr, _ := wire.DecodeError(p)
		if typ != wire.MsgError || !errors.Is(werr, astdb.ErrWriteProtected) {
			t.Fatalf("summary DML answered %#x %v", typ, werr)
		}
	})

	t.Run("unknown-message-type", func(t *testing.T) {
		typ, p := roundTrip(t, conn, 0x42, nil)
		werr, _ := wire.DecodeError(p)
		if typ != wire.MsgError || werr == nil || werr.Code != wire.CodeInternal {
			t.Fatalf("unknown type answered %#x %v", typ, werr)
		}
		// The session survives a bad request.
		if typ, _ := roundTrip(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
			t.Fatalf("session dead after bad request: %#x", typ)
		}
	})
}

func TestSessionCapRejects(t *testing.T) {
	_, s, addr := testEnv(t, Config{MaxSessions: 1})
	conn := dial(t, addr)
	if typ, _ := roundTrip(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatal("first session not admitted")
	}
	second := dial(t, addr)
	second.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, p, err := wire.ReadFrame(second)
	if err != nil {
		t.Fatal(err)
	}
	werr, _ := wire.DecodeError(p)
	if typ != wire.MsgError || !errors.Is(werr, astdb.ErrOverloaded) {
		t.Fatalf("over-cap session answered %#x %v", typ, werr)
	}
	if s.obsv.Counter(CtrSessionsRejected) != 1 {
		t.Fatalf("rejected counter %d", s.obsv.Counter(CtrSessionsRejected))
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	_, s, addr := testEnv(t, Config{MaxConcurrent: 1, QueueDepth: 0})
	// Occupy the only execution slot from the test, simulating a long query.
	release, err := s.gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	typ, p := roundTrip(t, conn, wire.MsgQuery, wire.EncodeString(`select count(*) as c from trans`))
	werr, _ := wire.DecodeError(p)
	if typ != wire.MsgError || !errors.Is(werr, astdb.ErrOverloaded) {
		t.Fatalf("saturated query answered %#x %v", typ, werr)
	}
	// Ungated requests still work, and the session survived the rejection.
	if typ, _ := roundTrip(t, conn, wire.MsgPing, nil); typ != wire.MsgPong {
		t.Fatal("session dead after admission rejection")
	}
	release()
	typ, _ = roundTrip(t, conn, wire.MsgQuery, wire.EncodeString(`select count(*) as c from trans`))
	if typ != wire.MsgRows {
		t.Fatalf("query after release answered %#x", typ)
	}
	if s.obsv.Counter(CtrOverloaded) != 1 {
		t.Fatalf("overloaded counter %d", s.obsv.Counter(CtrOverloaded))
	}
}

// TestDisconnectCancelsQueuedRequest proves the client-disconnect → session
// context cancellation path: a request parked in the admission queue aborts
// as soon as its client hangs up, instead of holding the queue slot.
func TestDisconnectCancelsQueuedRequest(t *testing.T) {
	_, s, addr := testEnv(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	release, err := s.gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	conn := dial(t, addr)
	if err := wire.WriteFrame(conn, wire.MsgQuery, wire.EncodeString(`select count(*) as c from trans`)); err != nil {
		t.Fatal(err)
	}
	// Wait until the request is waiting on the gate, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for s.gate.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	for s.obsv.Counter(CtrSessionsClosed) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session still open after disconnect; %d waiting", s.gate.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	if w := s.gate.Waiting(); w != 0 {
		t.Fatalf("%d requests still queued after disconnect", w)
	}
}

// TestGracefulDrainServesInFlight is the zero-dropped-queries drain contract
// at full width: 512 concurrent sessions each send one query, Shutdown fires
// only after the server has read all of them, and every session must still
// receive a complete response — none may be cut off by the drain.
func TestGracefulDrainServesInFlight(t *testing.T) {
	const sessions = 512
	_, s, addr := testEnv(t, Config{MaxConcurrent: 8, QueueDepth: sessions})

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	conns := make([]net.Conn, sessions)
	for i := range conns {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			q := fmt.Sprintf(`select flid, count(*) as cnt from trans where qty > %d group by flid`, i%5)
			if err := wire.WriteFrame(c, wire.MsgQuery, wire.EncodeString(q)); err != nil {
				errs <- fmt.Errorf("session %d write: %w", i, err)
				return
			}
			c.SetReadDeadline(time.Now().Add(60 * time.Second))
			typ, p, err := wire.ReadFrame(c)
			if err != nil {
				errs <- fmt.Errorf("session %d dropped: %w", i, err)
				return
			}
			if typ != wire.MsgRows {
				errs <- fmt.Errorf("session %d answered %#x: %s", i, typ, p)
				return
			}
			if _, err := wire.DecodeRows(p); err != nil {
				errs <- fmt.Errorf("session %d bad rows: %w", i, err)
			}
		}(i, c)
	}

	// Drain only once every request has been read off its socket, so the
	// contract under test is unambiguous: all 512 are in flight.
	deadline := time.Now().Add(60 * time.Second)
	for s.obsv.Counter(CtrRequests) < sessions {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests read before deadline", s.obsv.Counter(CtrRequests), sessions)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("in-flight queries dropped during drain")
	}
	// New connections are refused after drain.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after drain")
	}
}

// TestShutdownIdleSessions: sessions with no request in flight are released
// promptly by the drain, not held until a timeout.
func TestShutdownIdleSessions(t *testing.T) {
	_, s, addr := testEnv(t, Config{})
	for i := 0; i < 8; i++ {
		dial(t, addr)
	}
	// Wait for the server to register all sessions before draining.
	deadline := time.Now().Add(10 * time.Second)
	for s.obsv.Counter(CtrSessionsOpened) < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d sessions opened", s.obsv.Counter(CtrSessionsOpened))
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle drain failed: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("idle drain took %v", took)
	}
	if opened, closed := s.obsv.Counter(CtrSessionsOpened), s.obsv.Counter(CtrSessionsClosed); opened != closed {
		t.Fatalf("%d sessions opened, %d closed", opened, closed)
	}
}

// TestBackToBackRequestsAnsweredInOrder: a client that sends two requests
// before reading gets both responses, in the order it sent them.
func TestBackToBackRequestsAnsweredInOrder(t *testing.T) {
	_, _, addr := testEnv(t, Config{})
	conn := dial(t, addr)
	for _, sql := range []string{`select count(*) as c1 from trans`, `select count(*) as c2 from loc`} {
		if err := wire.WriteFrame(conn, wire.MsgQuery, wire.EncodeString(sql)); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, want := range []string{"c1", "c2"} {
		typ, p, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := wire.DecodeRows(p)
		if typ != wire.MsgRows || err != nil {
			t.Fatalf("response %s: type %#x, %v", want, typ, err)
		}
		if len(rows.Cols) != 1 || rows.Cols[0] != want {
			t.Fatalf("response columns %v, want [%s]", rows.Cols, want)
		}
	}
}

// TestWriteDeadlineClosesStuckSession: a peer that sends a request and never
// reads the response loses its session once Config.WriteTimeout passes. The
// session runs over net.Pipe, which buffers nothing, so the response write
// blocks until the deadline fires.
func TestWriteDeadlineClosesStuckSession(t *testing.T) {
	db, _, _ := testEnv(t, Config{})
	s := New(db, Config{WriteTimeout: 100 * time.Millisecond})
	peer, conn := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	s.sessions.Do(func(ss *sessionSet) { ss.conns[conn] = struct{}{} })
	closed := s.obsv.Counter(CtrSessionsClosed)
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.serveConn(conn)
		close(done)
	}()
	if err := wire.WriteFrame(peer, wire.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("session still open a second after its response write stalled")
	}
	if got := s.obsv.Counter(CtrSessionsClosed); got != closed+1 {
		t.Fatalf("%s = %d, want %d", CtrSessionsClosed, got, closed+1)
	}
}

// TestServedBytesPerRow: beyond the payload it sends, the server allocates
// less per extra result row than that row's encoded size. The root relation
// is encoded from its chunks; flattening it to rows cost a 24 B row header
// and a 40 B Value per column, several times the row's encoded size. Each
// table is read whole with no WHERE, so the executor hands the table's own
// chunks over and allocates per chunk, not per row.
func TestServedBytesPerRow(t *testing.T) {
	cat := catalog.New()
	db, err := astdb.Open(cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sizes := []int{1024, 5120}
	for _, n := range sizes {
		name := fmt.Sprintf("t%d", n)
		if err := db.CreateTable(&catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindFloat},
			{Name: "s", Type: sqltypes.KindString},
		}}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]sqltypes.Value, n)
		for i := range rows {
			rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 7), sqltypes.NewString(fmt.Sprint("r", i%97))}
		}
		if _, err := db.Insert(ctx, name, rows); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, Config{})
	serve := func(n int) (bytes float64, payload int) {
		q := wire.EncodeString(fmt.Sprintf("select id, v, s from t%d", n))
		var p []byte
		s.query(ctx, q) // warm the plan cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for range runs {
			if _, p = s.query(ctx, q); len(p) == 0 {
				t.Fatal("empty payload")
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(p)
	}
	b0, p0 := serve(sizes[0])
	b1, p1 := serve(sizes[1])
	extra := float64(sizes[1] - sizes[0])
	perRow, encoded := (b1-b0)/extra, float64(p1-p0)/extra
	t.Logf("per extra row: %.1f B allocated, %.1f B encoded", perRow, encoded)
	if perRow-encoded >= encoded {
		t.Fatalf("the server allocates %.1f B per extra row beyond its %.1f encoded bytes", perRow-encoded, encoded)
	}
}
