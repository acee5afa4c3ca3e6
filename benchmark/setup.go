package main

import (
	"context"
	"database/sql"
	"fmt"
	"sync"
	"time"

	"repro/astdb"
	_ "repro/astdb/driver" // registers the "astdb" database/sql driver
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/server"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// system is one server under test: an engine configured as cmd/astserve
// configures it by default (observer on, default plan cache, no limits), its
// data, and the wire server in front of it on a loopback port.
type system struct {
	cat  *catalog.Catalog
	db   *astdb.Engine
	srv  *server.Server
	addr string
}

// setUp loads the star schema, materialises the summary tables when the
// workload deploys them, and starts the server. The returned duration is what
// setup_s reports.
func setUp(cfg workload.StarConfig, deploy bool) (*system, time.Duration, error) {
	began := time.Now()
	cat := catalog.New()
	db, err := astdb.Open(cat,
		astdb.WithLimits(exec.Config{}),
		astdb.WithPlanCache(0),
		astdb.WithObserver(obs.New()))
	if err != nil {
		return nil, 0, err
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), cfg)
	if deploy {
		for _, st := range summaryTables {
			if _, _, err := db.CreateSummaryTable(context.Background(), st.name, st.sql); err != nil {
				return nil, 0, fmt.Errorf("summary table %s: %w", st.name, err)
			}
		}
	}
	srv := server.New(db, server.Config{})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	return &system{cat: cat, db: db, srv: srv, addr: bound.String()}, time.Since(began), nil
}

// close drains the server; it returns once every session goroutine has ended.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// oracle answers a statement from base tables only, on the interpreter: no
// rewriter, no plan cache, no compiled or vectorised kernels. It shares
// nothing with the path under test but the parser, the graph builder and the
// store.
type oracle struct {
	cat *catalog.Catalog
	eng *exec.Engine
}

func newOracle(cat *catalog.Catalog, store *storage.Store) *oracle {
	return &oracle{cat: cat, eng: exec.NewEngine(store)}
}

func (o *oracle) run(text string) (*exec.Result, error) {
	g, err := qgm.BuildSQL(text, o.cat)
	if err != nil {
		return nil, err
	}
	return o.eng.RunCtx(context.Background(), g, exec.Config{Interpret: true, Parallelism: 1})
}

// runAll answers every text on two workers (the host has two cores and the
// interpreter is slow: ~0.15 s per statement over 100k rows).
func (o *oracle) runAll(texts []string) ([]*exec.Result, error) {
	out := make([]*exec.Result, len(texts))
	errs := make([]error, len(texts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = o.run(texts[i])
			}
		}()
	}
	for i := range texts {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", texts[i], err)
		}
	}
	return out, nil
}

// staleTables lists the summary tables the catalog no longer trusts.
func (s *system) staleTables() []string {
	var out []string
	for _, ca := range s.db.ASTs() {
		if st := s.cat.Status(ca.Def.Name); st.Stale || st.Quarantined {
			out = append(out, ca.Def.Name)
		}
	}
	return out
}

// checkSummaryTables compares every fresh summary table with a recompute of
// its definition by the oracle and returns one message per table that differs.
// The caller must have paused all writers.
func (s *system) checkSummaryTables(o *oracle) ([]string, error) {
	stale := map[string]bool{}
	for _, name := range s.staleTables() {
		stale[name] = true
	}
	var fresh []namedSQL
	var texts []string
	for _, st := range summaryTables {
		if !stale[st.name] {
			fresh = append(fresh, st)
			texts = append(texts, st.sql)
		}
	}
	want, err := o.runAll(texts)
	if err != nil {
		return nil, err
	}
	var bad []string
	for i, st := range fresh {
		rows, err := s.db.Store().Scan(st.name)
		if err != nil {
			return nil, err
		}
		got := &exec.Result{Cols: want[i].Cols, Rows: rows}
		if diff := exec.EqualResults(got, want[i]); diff != "" {
			bad = append(bad, fmt.Sprintf("summary table %s differs from its recompute: %s", st.name, diff))
		}
	}
	return bad, nil
}

// client is one closed-loop caller: a dedicated database/sql connection that
// sends its next statement only after the previous reply is fully read.
type client struct {
	conn *sql.Conn
}

// reply is what one SELECT cost the caller and what it returned.
type reply struct {
	rows  int
	cols  int
	kept  [][]sqltypes.Value // the rows, when the caller asked to keep them
	total time.Duration      // QueryContext call to last row scanned
	scan  time.Duration      // the Next/Scan loop alone
}

// query runs one SELECT and scans every row of its result, as an application
// would.
func (c *client) query(ctx context.Context, text string, keep bool) (reply, error) {
	var rep reply
	began := time.Now()
	rows, err := c.conn.QueryContext(ctx, text)
	if err != nil {
		return rep, err
	}
	defer rows.Close()
	scanBegan := time.Now()
	cols, err := rows.Columns()
	if err != nil {
		return rep, err
	}
	rep.cols = len(cols)
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return rep, err
		}
		rep.rows++
		if keep {
			row := make([]sqltypes.Value, len(vals))
			for i, v := range vals {
				if row[i], err = toValue(v); err != nil {
					return rep, err
				}
			}
			rep.kept = append(rep.kept, row)
		}
	}
	if err := rows.Err(); err != nil {
		return rep, err
	}
	end := time.Now()
	rep.total, rep.scan = end.Sub(began), end.Sub(scanBegan)
	return rep, nil
}

// exec runs one DML statement and returns the affected-row count.
func (c *client) exec(ctx context.Context, text string) (int64, error) {
	res, err := c.conn.ExecContext(ctx, text)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected()
}

// toValue maps what database/sql scanned back onto the engine's value type,
// so client-side rows compare against the oracle's with exec.EqualResults
// (sorted bags, floats to 1e-9 relative).
func toValue(v any) (sqltypes.Value, error) {
	switch x := v.(type) {
	case nil:
		return sqltypes.Value{}, nil
	case int64:
		return sqltypes.NewInt(x), nil
	case float64:
		return sqltypes.NewFloat(x), nil
	case string:
		return sqltypes.NewString(x), nil
	case bool:
		return sqltypes.NewBool(x), nil
	case time.Time:
		return sqltypes.NewDate(x.Year(), int(x.Month()), x.Day()), nil
	default:
		return sqltypes.Value{}, fmt.Errorf("unexpected scanned type %T", v)
	}
}
