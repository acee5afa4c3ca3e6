// Command astserve exposes the engine over TCP with the astdb wire protocol,
// so many clients share one catalog, plan cache, and summary-table set — the
// deployment shape the paper assumes (a DBMS maintaining ASTs for its whole
// query population, not one process per user).
//
// Usage:
//
//	astserve -demo                          # star schema + data, listen on 127.0.0.1:5433
//	astserve -demo -asts paper              # also materialize the paper's summary tables
//	astserve -demo -max-sessions 256 -max-concurrent 8 -queue-depth 64
//
// Clients connect with the astdb database/sql driver:
//
//	db, _ := sql.Open("astdb", "127.0.0.1:5433")
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes and every
// request already received is served before its session ends; -drain-grace
// bounds how long that may take before in-flight work is canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	ctx, cancel := context.WithCancelCause(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(fmt.Errorf("received %s", <-sigs)) }()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "astserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, loads and materializes what they
// ask for, serves until ctx is canceled and then drains, reporting each step
// on stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("astserve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:5433", "listen address (host:port, port 0 picks a free port)")
	demo := fs.Bool("demo", false, "preload the paper's credit-card star schema with synthetic data")
	scale := fs.Int("scale", 10000, "demo fact-table rows")
	asts := fs.String("asts", "", `summary tables to materialize: "paper" (ast1,ast6,ast7), "ds" (the TPC-D-style set), or comma-separated names from the paper suite`)
	maxSessions := fs.Int("max-sessions", 0, "maximum concurrent sessions (0 = unlimited)")
	maxConcurrent := fs.Int("max-concurrent", 0, "maximum concurrently executing queries (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue depth once all execution slots are busy")
	timeout := fs.Duration("timeout", 0, "per-query execution timeout (0 = none)")
	limit := fs.Int("limit", 0, "per-query row-materialization budget (0 = unlimited)")
	obsFlag := fs.Bool("obs", true, "record observability data (served to clients via the obs request)")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long a graceful drain may take before in-flight queries are canceled")
	fs.Parse(args)

	opts := []astdb.Option{
		astdb.WithLimits(exec.Config{MaxRows: *limit, Timeout: *timeout}),
	}
	if *obsFlag {
		opts = append(opts, astdb.WithObserver(obs.New()))
	}
	db, err := astdb.Open(catalog.New(), opts...)
	if err != nil {
		return err
	}
	if *demo {
		workload.Schema(db.Catalog())
		workload.Load(db.Catalog(), db.Store(), workload.StarConfig{NumTrans: *scale, Seed: 1})
		fmt.Fprintf(stdout, "demo schema loaded: trans(%d rows), loc, pgroup, acct, cust\n",
			db.Store().MustTable("trans").Cardinality())
	}
	if *asts != "" {
		if !*demo {
			return fmt.Errorf("-asts needs -demo (the summary tables are defined over the demo schema)")
		}
		if err := materialize(ctx, db, *asts, stdout); err != nil {
			return err
		}
	}

	srv := server.New(db, server.Config{
		MaxSessions:   *maxSessions,
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "astserve listening on %s\n", bound)

	<-ctx.Done()
	fmt.Fprintf(stdout, "%v, draining (grace %s)\n", context.Cause(ctx), *drainGrace)
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "drained cleanly")
	return nil
}

// materialize creates the requested summary tables through the facade (so
// they are catalog-registered, write-protected, and maintained under DML).
func materialize(ctx context.Context, db *astdb.Engine, spec string, stdout io.Writer) error {
	create := func(name, sql string) error {
		_, rows, err := db.CreateSummaryTable(ctx, name, sql)
		if err != nil {
			return fmt.Errorf("summary table %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "materialized %s (%d rows)\n", name, rows)
		return nil
	}
	switch spec {
	case "paper":
		for _, name := range []string{"ast1", "ast6", "ast7"} {
			if err := create(name, bench.ASTDefs[name]); err != nil {
				return err
			}
		}
	case "ds":
		for _, ast := range workload.DSASTs {
			if err := create(ast.Name, ast.SQL); err != nil {
				return err
			}
		}
	default:
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			sql, ok := bench.ASTDefs[name]
			if !ok {
				known := make([]string, 0, len(bench.ASTDefs))
				for k := range bench.ASTDefs {
					known = append(known, k)
				}
				sort.Strings(known)
				return fmt.Errorf("unknown summary table %q (paper suite has %s)", name, strings.Join(known, ", "))
			}
			if err := create(name, sql); err != nil {
				return err
			}
		}
	}
	return nil
}
