package driver

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// Conn is one wire session. database/sql serializes calls on a Conn, so no
// locking is needed around the socket; the only concurrent access is the
// cancellation path in roundTrip, which closes the socket.
type Conn struct {
	nc  net.Conn
	bad atomic.Bool // a failed or canceled round-trip poisons the session
}

// markBad poisons the conn and closes its socket; the pool discards it.
func (c *Conn) markBad() {
	if c.bad.CompareAndSwap(false, true) {
		c.nc.Close()
	}
}

// IsValid lets the pool drop poisoned conns instead of reusing them.
func (c *Conn) IsValid() bool { return !c.bad.Load() }

// Close ends the session.
func (c *Conn) Close() error {
	c.bad.Store(true)
	return c.nc.Close()
}

// roundTrip performs one request/response exchange. On ctx cancellation the
// socket is closed — that is the protocol's cancel signal; the server tears
// down the session and aborts the in-flight query — and ctx.Err() is
// returned. A conn that already failed returns ErrBadConn so database/sql
// retries on a fresh one; a failure after the request may have reached the
// server never does (the retry could execute DML twice).
func (c *Conn) roundTrip(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	if c.bad.Load() {
		return 0, nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	type result struct {
		typ byte
		p   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		if err := wire.WriteFrame(c.nc, typ, payload); err != nil {
			done <- result{err: fmt.Errorf("astdb driver: write: %w", err)}
			return
		}
		t, p, err := wire.ReadFrame(c.nc)
		if err != nil {
			err = fmt.Errorf("astdb driver: read: %w", err)
		}
		done <- result{t, p, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			c.markBad()
			return 0, nil, r.err
		}
		return r.typ, r.p, nil
	case <-ctx.Done():
		c.markBad() // closes the socket, which unblocks the goroutine
		<-done
		return 0, nil, ctx.Err()
	}
}

// request sends one statement and decodes an error response if that is what
// came back; wire errors unwrap to the astdb sentinels.
func (c *Conn) request(ctx context.Context, typ byte, sql string) (byte, []byte, error) {
	rtyp, p, err := c.roundTrip(ctx, typ, wire.EncodeString(sql))
	if err != nil {
		return 0, nil, err
	}
	if rtyp == wire.MsgError {
		werr, derr := wire.DecodeError(p)
		if derr != nil {
			c.markBad()
			return 0, nil, derr
		}
		return 0, nil, werr
	}
	return rtyp, p, nil
}

// Ping implements driver.Pinger.
func (c *Conn) Ping(ctx context.Context) error {
	typ, _, err := c.roundTrip(ctx, wire.MsgPing, nil)
	if err != nil {
		if c.bad.Load() && ctx.Err() == nil {
			return driver.ErrBadConn
		}
		return err
	}
	if typ != wire.MsgPong {
		c.markBad()
		return driver.ErrBadConn
	}
	return nil
}

// QueryContext implements driver.QueryerContext.
func (c *Conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	sql, err := interpolate(query, args)
	if err != nil {
		return nil, err
	}
	typ, p, err := c.request(ctx, wire.MsgQuery, sql)
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgRows {
		c.markBad()
		return nil, fmt.Errorf("astdb driver: query answered with frame %#x", typ)
	}
	m, err := wire.DecodeRows(p)
	if err != nil {
		c.markBad()
		return nil, err
	}
	return &Rows{m: m}, nil
}

// ExecContext implements driver.ExecerContext.
func (c *Conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	sql, err := interpolate(query, args)
	if err != nil {
		return nil, err
	}
	typ, p, err := c.request(ctx, wire.MsgExec, sql)
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgExecOK {
		c.markBad()
		return nil, fmt.Errorf("astdb driver: exec answered with frame %#x", typ)
	}
	ok, err := wire.DecodeExecOK(p)
	if err != nil {
		c.markBad()
		return nil, err
	}
	return execResult{affected: ok.Affected}, nil
}

// Prepare implements driver.Conn. Preparation is client-side only: the
// engine compiles per statement, so Stmt just remembers the text.
func (c *Conn) Prepare(query string) (driver.Stmt, error) {
	return &Stmt{conn: c, query: query, numInput: countPlaceholders(query)}, nil
}

// Begin implements driver.Conn. The engine has no transactions; each
// statement applies atomically under the engine's own locking.
func (c *Conn) Begin() (driver.Tx, error) {
	return nil, errors.New("astdb driver: transactions are not supported")
}

// BeginTx implements driver.ConnBeginTx with the same answer (without it,
// database/sql would silently fake a Tx on top of Begin).
func (c *Conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	return c.Begin()
}

// CheckNamedValue implements driver.NamedValueChecker: ordinal "?"
// placeholders only, and only values with a SQL literal form. The value is
// replaced with its sqltypes form; interpolate renders it.
func (c *Conn) CheckNamedValue(nv *driver.NamedValue) error {
	if nv.Name != "" {
		return fmt.Errorf("astdb driver: named parameter %q not supported (ordinal ? only)", nv.Name)
	}
	v, err := toValue(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v
	return nil
}

// toValue maps a Go argument onto the engine's value domain.
func toValue(arg any) (sqltypes.Value, error) {
	switch v := arg.(type) {
	case nil:
		return sqltypes.Value{}, nil
	case sqltypes.Value:
		return v, nil
	case int64:
		return sqltypes.NewInt(v), nil
	case int:
		return sqltypes.NewInt(int64(v)), nil
	case float64:
		return sqltypes.NewFloat(v), nil
	case bool:
		return sqltypes.NewBool(v), nil
	case string:
		return sqltypes.NewString(v), nil
	case time.Time:
		return sqltypes.NewDate(v.Year(), int(v.Month()), v.Day()), nil
	default:
		return sqltypes.Value{}, fmt.Errorf("astdb driver: unsupported argument type %T", arg)
	}
}

// interpolate substitutes each ordinal "?" outside string literals with the
// SQL literal of the corresponding argument. A NaN or infinite float has none
// and is refused.
func interpolate(query string, args []driver.NamedValue) (string, error) {
	if len(args) == 0 && !strings.ContainsRune(query, '?') {
		return query, nil
	}
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	next := 0
	inString := false
	for i := 0; i < len(query); i++ {
		ch := query[i]
		switch {
		case ch == '\'':
			inString = !inString // '' escapes read as leave-then-reenter: harmless
			b.WriteByte(ch)
		case ch == '?' && !inString:
			if next >= len(args) {
				return "", fmt.Errorf("astdb driver: statement has more than %d placeholders", len(args))
			}
			v, err := toValue(args[next].Value)
			if err != nil {
				return "", err
			}
			if v.Kind() == sqltypes.KindFloat && (math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0)) {
				return "", fmt.Errorf("astdb driver: argument %d is %v, which has no SQL literal", next+1, v)
			}
			b.WriteString(v.SQLLiteral())
			next++
		default:
			b.WriteByte(ch)
		}
	}
	if next != len(args) {
		return "", fmt.Errorf("astdb driver: %d arguments for %d placeholders", len(args), next)
	}
	return b.String(), nil
}

// countPlaceholders reports the number of ordinal placeholders, for
// Stmt.NumInput.
func countPlaceholders(query string) int {
	n := 0
	inString := false
	for i := 0; i < len(query); i++ {
		switch {
		case query[i] == '\'':
			inString = !inString
		case query[i] == '?' && !inString:
			n++
		}
	}
	return n
}

// Stmt is a client-side prepared statement: remembered text plus the
// placeholder count. Execution delegates to the Conn.
type Stmt struct {
	conn     *Conn
	query    string
	numInput int
}

// Close implements driver.Stmt (nothing is held server-side).
func (s *Stmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *Stmt) NumInput() int { return s.numInput }

// Query implements driver.Stmt.
func (s *Stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), named(args))
}

// Exec implements driver.Stmt.
func (s *Stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), named(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *Stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.conn.QueryContext(ctx, s.query, args)
}

// ExecContext implements driver.StmtExecContext.
func (s *Stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.conn.ExecContext(ctx, s.query, args)
}

// named adapts positional values to the NamedValue form.
func named(args []driver.Value) []driver.NamedValue {
	nvs := make([]driver.NamedValue, len(args))
	for i, a := range args {
		nvs[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return nvs
}

// execResult implements driver.Result.
type execResult struct {
	affected int64
}

// LastInsertId implements driver.Result; the engine has no auto-increment
// identity.
func (r execResult) LastInsertId() (int64, error) {
	return 0, errors.New("astdb driver: LastInsertId is not supported")
}

// RowsAffected implements driver.Result.
func (r execResult) RowsAffected() (int64, error) { return r.affected, nil }
