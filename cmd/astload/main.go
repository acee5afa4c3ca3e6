// Command astload is the concurrency load benchmark behind BENCH_4.json: it
// sweeps 1/8/64/512 concurrent sessions over the paper's query suite (q1–q12
// plus the TPC-D-style DS mix) through the wire protocol and the database/sql
// driver, and records QPS and p50/p99 client latency per leg.
//
// Self-hosted mode (the default) starts three in-process servers, one per
// statement-mix configuration, so one run captures the paper's comparison at
// every concurrency level:
//
//   - original: no summary tables, plan cache off — every query runs
//     against base tables;
//   - rewritten: summary tables materialized, plan cache off — every query
//     pays matching + rewriting, then runs against the AST;
//   - cached: summary tables + plan cache — steady state, matching
//     amortized away.
//
// The sweep behind BENCH_4.json:
//
//	astload -scale 20000 -json BENCH_4.json
//
// Against an external server (for smoke tests and manual runs) it measures
// whatever that server is configured to do:
//
//	astload -addr 127.0.0.1:5433 -sessions 8 -queries 200
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "astload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "measure an already-running server at host:port instead of self-hosting the three mixes")
	scale := flag.Int("scale", 20000, "fact-table rows for self-hosted servers")
	sessionsFlag := flag.String("sessions", "1,8,64,512", "comma-separated concurrency levels to sweep")
	queries := flag.Int("queries", 512, "total queries per leg")
	warmup := flag.Int("warmup", 16, "untimed warmup queries per leg")
	jsonPath := flag.String("json", "", "write the machine-readable report (BENCH_4.json format) to this path")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this path")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile of the run to this path")
	gomaxprocs := flag.Int("gomaxprocs", 0, "override GOMAXPROCS for the run (0 = leave as-is)")
	flag.Parse()

	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}
	// Sample every mutex-contention and blocking event: the benchmark exists
	// to find contention, so a full-rate profile beats a cheap one. The legs
	// themselves measure throughput, so profile-enabled runs should not be
	// compared against profile-off runs.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}

	var sessions []int
	for _, s := range strings.Split(*sessionsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sessions entry %q", s)
		}
		sessions = append(sessions, n)
	}

	mix := querySuite()
	report := &bench.LoadReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: *scale}

	if *addr != "" {
		if err := sweep(report, "external", *addr, sessions, mix, *queries, *warmup); err != nil {
			return err
		}
	} else {
		for _, cfg := range []struct {
			mix  string
			asts bool
			// plan cache capacity: <0 disabled, 0 default
			cache int
		}{
			{"original", false, -1},
			{"rewritten", true, -1},
			{"cached", true, 0},
		} {
			addr, shutdown, err := selfHost(*scale, cfg.asts, cfg.cache)
			if err != nil {
				return fmt.Errorf("mix %s: %w", cfg.mix, err)
			}
			err = sweep(report, cfg.mix, addr, sessions, mix, *queries, *warmup)
			shutdown()
			if err != nil {
				return err
			}
		}
	}

	if err := writeProfile("mutex", *mutexProfile); err != nil {
		return err
	}
	if err := writeProfile("block", *blockProfile); err != nil {
		return err
	}

	renderTable(report)
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// writeProfile dumps one named runtime profile (pprof format) to path, or does
// nothing when path is empty.
func writeProfile(name, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	fmt.Printf("wrote %s profile to %s\n", name, path)
	return nil
}

// querySuite is the measured statement mix: the paper's q1–q12 workload plus
// the DS decision-support suite, in deterministic order.
func querySuite() []string {
	names := make([]string, 0, len(bench.Queries))
	for n := range bench.Queries {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		out = append(out, bench.Queries[n])
	}
	for _, q := range workload.DSQueries {
		out = append(out, q.SQL)
	}
	return out
}

// selfHost starts one wire server over a freshly loaded engine.
func selfHost(scale int, withASTs bool, cacheCap int) (addr string, shutdown func(), err error) {
	cat := catalog.New()
	db, err := astdb.Open(cat,
		astdb.WithPlanCache(cacheCap),
		astdb.WithObserver(obs.New()))
	if err != nil {
		return "", nil, err
	}
	workload.Schema(cat)
	workload.Load(cat, db.Store(), workload.StarConfig{NumTrans: scale, Seed: 20000521})
	if withASTs {
		ctx := context.Background()
		for _, name := range []string{"ast1", "ast6", "ast7"} {
			if _, _, err := db.CreateSummaryTable(ctx, name, bench.ASTDefs[name]); err != nil {
				return "", nil, err
			}
		}
		for _, ast := range workload.DSASTs {
			if _, _, err := db.CreateSummaryTable(ctx, ast.Name, ast.SQL); err != nil {
				return "", nil, err
			}
		}
	}
	srv := server.New(db, server.Config{})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return bound.String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// sweep measures every concurrency level against one server.
func sweep(report *bench.LoadReport, mixName, addr string, sessions []int, mix []string, queries, warmup int) error {
	ctx := context.Background()
	for _, n := range sessions {
		res, err := bench.RunLoad(ctx, bench.LoadSpec{
			Addr:         addr,
			Sessions:     n,
			TotalQueries: queries,
			Queries:      mix,
			Warmup:       warmup,
		})
		if err != nil {
			return fmt.Errorf("leg %s/%d: %w", mixName, n, err)
		}
		if res.Errors > 0 {
			return fmt.Errorf("leg %s/%d: %d/%d queries failed, first: %v",
				mixName, n, res.Errors, res.Errors+res.Queries, res.FirstErr)
		}
		report.Legs = append(report.Legs, res.Leg(mixName))
		fmt.Fprintf(os.Stderr, "%-9s %4d sessions: %8.1f qps  p50 %8.2fms  p99 %8.2fms\n",
			mixName, n, res.QPS,
			float64(res.P50.Microseconds())/1000, float64(res.P99.Microseconds())/1000)
	}
	return nil
}

// renderTable prints the report as a markdown table (the EXPERIMENTS.md row
// source).
func renderTable(r *bench.LoadReport) {
	fmt.Println("\n| mix | sessions | QPS | p50 | p99 |")
	fmt.Println("|---|---|---|---|---|")
	for _, leg := range r.Legs {
		fmt.Printf("| %s | %d | %.1f | %.2fms | %.2fms |\n",
			leg.Mix, leg.Sessions, leg.QPS, leg.P50Us/1000, leg.P99Us/1000)
	}
}
