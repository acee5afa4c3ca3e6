package main

import (
	"bufio"
	"context"
	"database/sql"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/astdb"
	_ "repro/astdb/driver" // registers the "astdb" database/sql driver
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/workload"
)

// sessions is how many database/sql sessions TestServeAndDrain holds open at
// once.
const sessions = 8

// TestServeAndDrain starts the server on a free port with the paper's summary
// tables, has 8 concurrent driver sessions ask each paper query, checks that
// every session got the same rows, then cancels the server's context and
// waits for it to report a clean drain.
func TestServeAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-demo", "-scale", "2000", "-asts", "paper"}, pw)
		pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	var out strings.Builder
	addr := ""
	for addr == "" && lines.Scan() {
		out.WriteString(lines.Text() + "\n")
		if a, ok := strings.CutPrefix(lines.Text(), "astserve listening on "); ok {
			addr = a
		}
	}
	if addr == "" {
		t.Fatalf("no listening line:\n%s(run: %v)", out.String(), <-done)
	}
	rest := make(chan string)
	go func() {
		var sb strings.Builder
		for lines.Scan() {
			sb.WriteString(lines.Text() + "\n")
		}
		rest <- sb.String()
	}()

	pool, err := sql.Open("astdb", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	conns := make([]*sql.Conn, sessions)
	for i := range conns {
		if conns[i], err = pool.Conn(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := pool.Stats().OpenConnections; n != sessions {
		t.Fatalf("%d sessions open, want %d", n, sessions)
	}
	names := []string{"q1", "q4", "q6", "q7", "q10", "q11_1", "q12_1"}
	answers := make([][]string, sessions)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range names {
				a, err := answer(ctx, c, bench.Queries[q])
				if err != nil {
					t.Errorf("session %d, %s: %v", i, q, err)
					return
				}
				answers[i] = append(answers[i], a)
			}
		}()
	}
	wg.Wait()
	for i, c := range conns {
		c.Close()
		if t.Failed() {
			continue
		}
		for j, q := range names {
			if answers[i][j] != answers[0][j] {
				t.Errorf("session %d's %s differs from session 0's", i, q)
			}
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out.WriteString(<-rest)
	for _, w := range []string{"materialized ast1", "materialized ast6", "materialized ast7", "context canceled, draining", "drained cleanly"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("server output does not say %q:\n%s", w, out.String())
		}
	}
}

// answer runs one query on one session and renders its rows, or fails when
// there are none.
func answer(ctx context.Context, c *sql.Conn, query string) (string, error) {
	rows, err := c.QueryContext(ctx, query)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return "", err
	}
	cells := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range cells {
		ptrs[i] = &cells[i]
	}
	var sb strings.Builder
	n := 0
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, cells...)
		n++
	}
	if n == 0 {
		return "", fmt.Errorf("no rows")
	}
	return sb.String(), rows.Err()
}

// TestRefusals checks the summary-table specs run refuses before it listens.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-asts", "paper"}, "-asts needs -demo"},
		{[]string{"-demo", "-scale", "100", "-asts", "ast7,nosuch"}, `unknown summary table "nosuch" (paper suite has ast1, ast10,`},
		{[]string{"-demo", "-scale", "100", "-addr", "no-port"}, "missing port"},
	} {
		if err := run(context.Background(), tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%v: error %v, want one that says %q", tc.args, err, tc.err)
		}
	}
}

// TestMaterialize builds the TPC-D-style set the "ds" spec names, and fails
// to build the paper's set without its schema.
func TestMaterialize(t *testing.T) {
	db, err := astdb.Open(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := materialize(context.Background(), db, "paper", io.Discard); err == nil || !strings.Contains(err.Error(), "summary table ast1:") {
		t.Errorf("paper set without a schema: error %v", err)
	}
	workload.Schema(db.Catalog())
	workload.Load(db.Catalog(), db.Store(), workload.StarConfig{NumTrans: 200, Seed: 1})
	var out strings.Builder
	if err := materialize(context.Background(), db, "ds", &out); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(out.String(), "materialized "), len(workload.DSASTs); got != want {
		t.Errorf("materialized %d tables, want %d:\n%s", got, want, out.String())
	}
}
