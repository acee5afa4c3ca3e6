// Package server is the wire server behind cmd/astserve: it exposes one
// shared astdb.Engine — catalog, plan cache, storage, summary tables — to
// many concurrent network sessions speaking the internal/wire protocol.
//
// One TCP connection is one session. Requests on a session are handled
// strictly in order; concurrency comes from many sessions sharing the engine,
// which is exactly the multi-user DBMS shape the paper's summary tables
// exist to serve. Three boundaries keep an overloaded server honest:
//
//   - a session cap: connections past Config.MaxSessions receive a typed
//     overloaded error and are closed instead of silently queueing;
//   - an admission gate (exec.Gate): at most MaxConcurrent query/exec
//     requests execute at once, QueueDepth more wait, the rest are rejected
//     with the same typed error while the session stays usable;
//   - per-query budgets: the engine's exec.Config (row budget, timeout)
//     applies to every request as it would in-process.
//
// Cancellation propagates from the socket: a client disconnect cancels the
// session context, which aborts the in-flight request through the engine's
// usual typed-error path. Shutdown drains gracefully — the listener closes,
// idle sessions are released, and every request already received is served
// to completion before its connection closes; only the hard-stop deadline
// cancels work.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/astdb"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rcu"
	"repro/internal/wire"
)

// Observability names recorded on the engine's observer (when one is
// attached), extending the DESIGN.md §9 taxonomy to the serving layer.
const (
	CtrSessionsOpened   = "server.sessions.opened"
	CtrSessionsClosed   = "server.sessions.closed"
	CtrSessionsRejected = "server.sessions.rejected"
	CtrRequests         = "server.requests"
	CtrOverloaded       = "server.overloaded"
	CtrDrainServed      = "server.drain.served"
	HistRequest         = "server.request"
)

// Config bounds one server. The zero value listens without session or
// admission limits (per-query budgets still come from the engine's
// exec.Config).
type Config struct {
	// MaxSessions caps concurrent connections; further connections get a
	// typed overloaded error and are closed. 0 = unlimited.
	MaxSessions int
	// MaxConcurrent caps query/exec requests executing at once across all
	// sessions; 0 = unlimited (ping/explain/obs are never gated).
	MaxConcurrent int
	// QueueDepth is how many gated requests may wait for a slot before the
	// gate rejects; meaningful only with MaxConcurrent > 0.
	QueueDepth int
	// WriteTimeout bounds one response write (default 30s): a stuck client
	// must not pin a session goroutine forever.
	WriteTimeout time.Duration
}

// Server serves the wire protocol over a shared engine. Construct with New,
// start with Start, stop with Shutdown.
type Server struct {
	db   *astdb.Engine
	cfg  Config
	gate *exec.Gate
	obsv *obs.Observer

	ln net.Listener
	wg sync.WaitGroup // one per live session + one for the accept loop

	sessions rcu.Guarded[sessionSet]

	drainCh    chan struct{} // closed when drain starts
	hardCtx    context.Context
	hardCancel context.CancelFunc
}

// sessionSet is the set of live connections and whether intake has stopped.
type sessionSet struct {
	conns    map[net.Conn]struct{}
	draining bool
}

// New builds a server over the engine. The engine's observer (if any)
// receives the server's counters, histograms, and per-session spans.
func New(db *astdb.Engine, cfg Config) *Server {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		cfg:        cfg,
		gate:       exec.NewGate(cfg.MaxConcurrent, cfg.QueueDepth),
		obsv:       db.Observer(),
		drainCh:    make(chan struct{}),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	s.sessions.Do(func(ss *sessionSet) { ss.conns = map[net.Conn]struct{}{} })
	return s
}

// Start listens on addr (":0" picks a free port) and serves in background
// goroutines until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

// Addr returns the listener's address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// acceptLoop admits sessions until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		var draining, admitted bool
		s.sessions.Do(func(ss *sessionSet) {
			draining = ss.draining
			if !draining && (s.cfg.MaxSessions <= 0 || len(ss.conns) < s.cfg.MaxSessions) {
				ss.conns[conn] = struct{}{}
				s.wg.Add(1) // under the lock: Shutdown's Wait starts after it sets draining
				admitted = true
			}
		})
		switch {
		case admitted:
			go s.serveConn(conn)
		case draining:
			conn.Close()
		default:
			s.obsv.Add(CtrSessionsRejected, 1)
			s.rejectSession(conn)
		}
	}
}

// rejectSession tells an over-cap client why it is being dropped.
func (s *Server) rejectSession(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	wire.WriteFrame(conn, wire.MsgError, wire.EncodeError(wire.CodeOverloaded,
		fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions)))
	conn.Close()
}

// request is one frame read off a session's socket.
type request struct {
	typ     byte
	payload []byte
}

// sessionWriterBuf sizes each session's response buffer: big enough to absorb
// a burst of cached-query responses in one syscall, small enough that 64
// sessions cost ~1 MiB.
const sessionWriterBuf = 16 << 10

// sessionWriter batches one session's response frames through a buffered
// writer. Responses are flushed when the worker is about to block waiting for
// the next request (flush-on-idle, see serveConn), so a request/response
// client sees no added latency while a pipelining client gets many responses
// per write syscall instead of one each.
type sessionWriter struct {
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

func newSessionWriter(conn net.Conn, timeout time.Duration) *sessionWriter {
	return &sessionWriter{conn: conn, bw: bufio.NewWriterSize(conn, sessionWriterBuf), timeout: timeout}
}

// writeFrame buffers one response frame. The write deadline is armed first so
// a buffer-overflow spill to a stuck client still times out.
func (w *sessionWriter) writeFrame(typ byte, payload []byte) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return wire.WriteFrame(w.bw, typ, payload)
}

// flush pushes buffered responses to the socket.
func (w *sessionWriter) flush() error {
	if w.bw.Buffered() == 0 {
		return nil
	}
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.bw.Flush()
}

// serveConn runs one session: a reader goroutine pulls frames off the
// socket; this goroutine handles them in order and writes the responses.
// The split is what makes cancellation and drain work — the reader notices a
// dead client while a query is still executing, and drain can stop intake
// without abandoning a frame that already arrived.
func (s *Server) serveConn(conn net.Conn) {
	s.obsv.Add(CtrSessionsOpened, 1)
	span := s.obsv.Start("session")
	reqs := make(chan request)
	defer func() {
		// Runs after conn.Close below: the reader is unblocked, so draining
		// reqs here frees it if it was parked delivering a read-ahead frame.
		for range reqs {
		}
		span.End()
		s.obsv.Add(CtrSessionsClosed, 1)
		s.sessions.Do(func(ss *sessionSet) { delete(ss.conns, conn) })
		s.wg.Done()
	}()
	defer conn.Close()

	ctx, cancel := context.WithCancel(s.hardCtx)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, span)

	go func() {
		defer close(reqs)
		for {
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil {
				// During drain the failed read is the deadline poke from the
				// worker; in-flight work must finish, so leave ctx alone.
				// Otherwise the client is gone: abort the in-flight request.
				select {
				case <-s.drainCh:
				default:
					cancel()
				}
				return
			}
			s.obsv.Add(CtrRequests, 1)
			reqs <- request{typ, payload}
		}
	}()

	w := newSessionWriter(conn, s.cfg.WriteTimeout)
	for {
		// Prefer pending requests over the drain signal so a request that
		// raced the drain is served, not dropped. While requests are pending
		// their responses accumulate in the session writer; the flush in the
		// default arm below runs exactly when the worker would otherwise
		// block, so no response ever waits behind an idle socket.
		select {
		case r, ok := <-reqs:
			if !ok {
				w.flush()
				return
			}
			if !s.handle(ctx, w, r) {
				return
			}
		default:
			if w.flush() != nil {
				return
			}
			select {
			case r, ok := <-reqs:
				if !ok {
					w.flush()
					return
				}
				if !s.handle(ctx, w, r) {
					return
				}
			case <-s.drainCh:
				// Graceful drain: stop intake, then serve whatever the
				// reader already pulled off the socket before closing.
				conn.SetReadDeadline(time.Now())
				for r := range reqs {
					s.handle(ctx, w, r)
				}
				w.flush()
				return
			}
		}
	}
}

// draining reports whether drain has been signaled.
func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// handle serves one request and buffers its response on the session writer;
// false means the session is beyond saving (response write failed).
func (s *Server) handle(ctx context.Context, w *sessionWriter, r request) bool {
	began := s.obsv.Now()
	var typ byte
	var payload []byte
	switch r.typ {
	case wire.MsgPing:
		typ, payload = wire.MsgPong, nil
	case wire.MsgQuery:
		typ, payload = s.query(ctx, r.payload)
	case wire.MsgExec:
		typ, payload = s.exec(ctx, r.payload)
	case wire.MsgExplain:
		typ, payload = s.explain(ctx, r.payload)
	case wire.MsgObs:
		typ, payload = s.obsSnapshot()
	default:
		typ, payload = wire.MsgError, wire.EncodeError(wire.CodeInternal,
			fmt.Sprintf("unknown message type %#x", r.typ))
	}
	s.obsv.ObserveSince(HistRequest, began)
	if s.isDraining() {
		s.obsv.Add(CtrDrainServed, 1)
	}
	return w.writeFrame(typ, payload) == nil
}

// errResponse classifies err under the wire taxonomy.
func errResponse(err error) (byte, []byte) {
	return wire.MsgError, wire.EncodeError(wire.CodeFor(err), err.Error())
}

// admit runs the admission gate for one query/exec request.
func (s *Server) admit(ctx context.Context) (func(), error) {
	release, err := s.gate.Enter(ctx)
	if err != nil {
		if errors.Is(err, exec.ErrOverloaded) {
			s.obsv.Add(CtrOverloaded, 1)
		}
		return nil, err
	}
	return release, nil
}

// query answers one MsgQuery.
func (s *Server) query(ctx context.Context, payload []byte) (byte, []byte) {
	sql, err := wire.DecodeString(payload)
	if err != nil {
		return errResponse(fmt.Errorf("%w: %w", astdb.ErrParse, err))
	}
	release, err := s.admit(ctx)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	ans, err := s.db.Query(ctx, sql)
	if err != nil {
		return errResponse(err)
	}
	m := &wire.Rows{
		Cols:     ans.Result.Cols,
		Kinds:    wire.InferKinds(ans.Result.Cols, ans.Result.Rows),
		Rows:     ans.Result.Rows,
		Mode:     ans.Result.Mode,
		AST:      ans.AST,
		CacheHit: ans.CacheHit,
		FellBack: ans.FellBack,
	}
	return wire.MsgRows, m.Encode()
}

// exec applies one MsgExec DML statement.
func (s *Server) exec(ctx context.Context, payload []byte) (byte, []byte) {
	sql, err := wire.DecodeString(payload)
	if err != nil {
		return errResponse(fmt.Errorf("%w: %w", astdb.ErrParse, err))
	}
	release, err := s.admit(ctx)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	res, err := s.db.ExecStatement(ctx, sql)
	if res == nil {
		return errResponse(err)
	}
	// res non-nil with err non-nil means the statement applied but some
	// summary-table refresh degraded (those ASTs are stale, queries fall
	// back); the statement outcome is still success.
	var maint strings.Builder
	for _, st := range res.Stats {
		if maint.Len() > 0 {
			maint.WriteString("; ")
		}
		if st.Err != nil {
			fmt.Fprintf(&maint, "%s: degraded (%v)", st.AST, st.Err)
			continue
		}
		fmt.Fprintf(&maint, "%s: %s, %d delta rows", st.AST, st.Strategy, st.DeltaRows)
	}
	m := &wire.ExecOK{Table: res.Table, Affected: int64(res.Affected), Maintenance: maint.String()}
	return wire.MsgExecOK, m.Encode()
}

// explain renders the EXPLAIN report for a SELECT, or the maintenance
// routing for a DELETE/UPDATE.
func (s *Server) explain(ctx context.Context, payload []byte) (byte, []byte) {
	sql, err := wire.DecodeString(payload)
	if err != nil {
		return errResponse(fmt.Errorf("%w: %w", astdb.ErrParse, err))
	}
	stmt, err := parser.ParseStatement(sql)
	if err != nil {
		return errResponse(fmt.Errorf("%w: %w", astdb.ErrParse, err))
	}
	if ex, ok := stmt.(*parser.ExplainStmt); ok {
		if ex.DML != nil {
			stmt, sql = ex.DML, ex.DML.SQL()
		} else {
			stmt, sql = ex.Query, ex.Query.SQL()
		}
	}
	var text strings.Builder
	switch stmt.(type) {
	case *parser.DeleteStmt, *parser.UpdateStmt:
		rep, err := s.db.ExplainDML(ctx, sql)
		if err != nil {
			return errResponse(err)
		}
		text.WriteString(rep.Render())
	default:
		rep, err := s.db.Explain(ctx, sql)
		if err != nil {
			return errResponse(err)
		}
		rep.Render(&text)
	}
	return wire.MsgText, wire.EncodeString(text.String())
}

// obsSnapshot renders the engine observer's snapshot.
func (s *Server) obsSnapshot() (byte, []byte) {
	if !s.obsv.Enabled() {
		return wire.MsgText, wire.EncodeString("observability disabled (start the server with -obs)\n")
	}
	var text strings.Builder
	s.db.Snapshot().Render(&text)
	return wire.MsgText, wire.EncodeString(text.String())
}

// Shutdown drains the server: the listener closes, idle sessions are
// released, and requests already received are served to completion. When ctx
// expires first, in-flight work is canceled (it surfaces as typed canceled
// errors to the affected clients) and connections are force-closed; the
// error then reports how much work was cut short. A second Shutdown waits on
// the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sessions.Do(func(ss *sessionSet) {
		if !ss.draining {
			ss.draining = true
			close(s.drainCh)
			if s.ln != nil {
				s.ln.Close()
			}
		}
	})

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		open := 0
		s.sessions.Do(func(ss *sessionSet) {
			open = len(ss.conns)
			for c := range ss.conns {
				c.Close()
			}
		})
		<-done
		return fmt.Errorf("server: drain deadline expired with %d sessions still open: %w", open, ctx.Err())
	}
}
