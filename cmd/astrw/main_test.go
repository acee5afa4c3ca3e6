package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite the golden transcript")

// transcriptScript is the shell session the golden transcript records: the
// paper's Figure 11, 13 and 14 summary tables and queries (EXPLAINed, then one
// of them run twice, the second time from the plan cache), a query no summary
// table matches, a hand-written summary table, a DELETE, an UPDATE and an
// INSERT with the refresh each one reports, and a LOAD TABLE from a CSV file.
func transcriptScript() string {
	var sb strings.Builder
	for _, ast := range []string{"ast10", "ast11"} {
		fmt.Fprintf(&sb, "create summary table %s as %s;\n", ast, bench.ASTDefs[ast])
	}
	for _, p := range bench.Pairings() {
		switch p.Figure {
		case "Figure 11", "Figure 13", "Figure 14":
			fmt.Fprintf(&sb, "explain %s;\n", bench.Queries[p.Query])
		}
	}
	sb.WriteString(bench.Queries["q12_2"] + ";\n")
	sb.WriteString(bench.Queries["q12_2"] + ";\n")
	sb.WriteString(`select pgname, count(*) as n from pgroup group by pgname;
create summary table byloc as select flid, sum(qty) as total, count(*) as cnt from trans group by flid;
explain select flid, sum(qty) as total from trans group by flid;
explain delete from trans where qty = 2;
delete from trans where qty = 2;
update trans set flid = 1 where flid = 2;
insert into trans values (900001, 1, 1, 1, '1995-03-04', 3, 9.5, 0.1);
load table trans from 'testdata/trans.csv';
select flid, sum(qty) as total, count(*) as cnt from trans where flid < 4 group by flid;
`)
	return sb.String()
}

// TestTranscript runs the shell over the paper's schema at a small scale and
// compares everything it prints with testdata/transcript.golden (go test
// -update rewrites it).
func TestTranscript(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "-scale", "2000", "-maxrows", "5"}, strings.NewReader(transcriptScript()), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := filepath.Join("testdata", "transcript.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from %s (run with -update to regenerate)\n%s", path, got)
	}
	// What a rewritten golden must still say.
	for _, s := range []string{"reads summary table byloc", "maintenance routing", "retired", "inserted 1 row", "loaded 3 row(s) into trans"} {
		if !strings.Contains(got, s) {
			t.Errorf("transcript does not say %q", s)
		}
	}
}

// TestRun runs the shell's other routes — its flags, CREATE TABLE with keys,
// LOAD TABLE's cell kinds and refusals, and the errors that end a script —
// and checks what each prints or the error it returns.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	kinds := write("kinds.csv", "1, 2.5, true, 1999-12-31, x\n2,,false,2000-01-01,null\n")
	short := write("short.csv", "1,2\n")
	badInt := write("bad.csv", "seven\n")
	const table = `create table k (id int not null, r double, b boolean, d date, s varchar, primary key (id), unique (s));
create table c (cid int not null, kid int, primary key (cid), foreign key (kid) references k (id));
`
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
		want  []string // printed, in this order
		err   string   // the error run returns; "" for none
	}{
		{name: "keys and cell kinds", stdin: table + "load table k from '" + kinds + "';\nselect id, r, b, d, s from k;\n",
			want: []string{"-- created table k", "-- created table c", "-- loaded 2 row(s) into k", "1  | 2.5  | true  | 1999-12-31 | x", "2  | NULL | false | 2000-01-01 | NULL"}},
		{name: "the demo script", args: []string{"-f", filepath.Join("..", "..", "examples", "scripts", "demo.sql")},
			want: []string{"-- inserted 7 row(s) into sales", "-- rewritten to read summary table sales_by_region_year:",
				"east   | 1990 | 480.0", "-- rewritten to read summary table sales_by_region_year:", "reads base tables"}},
		{name: "explain every select", args: []string{"-demo", "-scale", "200", "-explain"}, stdin: "select count(*) as n from loc;\n",
			want: []string{"EXPLAIN SELECT count(*) AS n FROM loc", "reads base tables"}},
		{name: "observability snapshot", args: []string{"-obs"}, stdin: table + "select id from k;\n", want: []string{"(0 rows)", "-- observability snapshot --"}},
		{name: "no script file", args: []string{"-f", filepath.Join(dir, "missing.sql")}, err: "no such file"},
		{name: "parse error", stdin: "selec 1;", err: "parser"},
		{name: "unknown table", stdin: "select a from nosuch;", err: "nosuch"},
		{name: "load into no table", stdin: "load table nosuch from 'x.csv';", err: `table "nosuch" not found`},
		{name: "load a missing file", stdin: table + "load table k from '" + filepath.Join(dir, "missing.csv") + "';", err: "no such file"},
		{name: "load a short row", stdin: table + "load table k from '" + short + "';", err: "row 1 has 2 cells, table has 5 columns"},
		{name: "load a bad cell", stdin: "create table n (k int);\nload table n from '" + badInt + "';", err: "row 1 column k"},
		{name: "summary tables are read-only", args: []string{"-demo", "-scale", "200"},
			stdin: "create summary table s as select flid, count(*) as c from trans group by flid;\ndelete from s;", err: "system-maintained"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, strings.NewReader(tc.stdin), &out)
			if tc.err == "" && err != nil {
				t.Fatal(err)
			}
			if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("error %v, want one that says %q", err, tc.err)
			}
			got := out.String()
			for _, w := range tc.want {
				i := strings.Index(got, w)
				if i < 0 {
					t.Fatalf("output does not say %q in order:\n%s", w, out.String())
				}
				got = got[i+len(w):]
			}
		})
	}
}

// TestDegradationsPrintedOnce: a match fault is printed after the statement
// that recorded it, and not again after the next one (whose plan comes from
// the cache, so nothing is matched).
func TestDegradationsPrintedOnce(t *testing.T) {
	faultinject.Enable(1)
	defer faultinject.Disable()
	faultinject.Set("core.match:s", faultinject.Err("core.match:s"))
	const q = "select flid, count(*) as c from trans group by flid;\n"
	var out strings.Builder
	if err := run([]string{"-demo", "-scale", "200"},
		strings.NewReader("create summary table s as "+q+q+q), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "-- degraded: "); n != 1 {
		t.Fatalf("%d degradations printed, want 1:\n%s", n, got)
	}
	if strings.Index(got, "-- degraded: ") > strings.LastIndex(got, "> SELECT") {
		t.Fatalf("the degradation is printed after the second query:\n%s", got)
	}
}

// TestREPL feeds the interactive loop two statements over three lines: the
// first fails and the loop goes on, the second spans two lines.
func TestREPL(t *testing.T) {
	var out strings.Builder
	db, err := astdb.Open(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{db: db, out: &out, maxRows: 20}
	sh.repl(strings.NewReader("select a from nosuch;\ncreate table t\n(a int);\n"))
	for _, w := range []string{"ast> ", "error: ", "nosuch", "...> ", "-- created table t"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("session does not say %q:\n%s", w, out.String())
		}
	}
}
