package parser_test

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
	"repro/internal/workload"
)

// FuzzParse asserts three robustness properties over arbitrary input:
//  1. Parse never panics — malformed SQL (e.g. a broken AST definition in the
//     catalog) must surface as an error the rewriter can skip, never crash
//     the process.
//  2. Round-trip stability — whatever parses must print to SQL that parses
//     back to the identical printed form, so stored AST definitions survive
//     a parse→print→store→parse cycle unchanged.
//  3. Built graphs are sound — whatever additionally builds into a QGM graph
//     against the paper schema must pass the full static checker
//     (internal/qgmcheck): the builder may reject input, but it must never
//     hand the rewriter an ill-typed or structurally broken graph. DML
//     statements (DELETE/UPDATE) go through their own builders, which must
//     likewise reject cleanly or succeed, never panic.
//  4. Every expression of a built graph has one shape: qgm.MapExpr with the
//     identity rebuilds an equal expression, and qgm.WalkExpr visits exactly
//     the nodes MapExpr rebuilds — a child that qgm's node switch forgets
//     fails here.
func FuzzParse(f *testing.F) {
	// Seeds: the paper's AST definitions and example queries, plus edge cases.
	for _, sql := range []string{
		`select faid, fpgid, flid, year(date) as year, count(*) as cnt,
			sum(qty * price * (1 - disc)) as revenue
			from trans group by faid, fpgid, flid, year(date)`,
		`select state, year(date) as y, count(*) as c from trans, loc
			where flid = lid group by state, year(date)`,
		`select flid, count(*) as cnt from trans where year(date) > 1990 group by flid`,
		`select country, sum(qty) as q from trans, loc where flid = lid
			and state = 'CA' group by country having sum(qty) > 10`,
		`select cname, age from cust where age between 20 and 30 order by cname`,
		`select a.tid, b.tid from trans a, trans b where a.faid = b.faid`,
		`select pgname from pgroup where pgname like 'foo%'`,
		`select faid from trans where faid in (1, 2, 3) and disc is not null`,
		`select count(distinct faid) as c from trans`,
		`select * from trans`,
		`select -1 + 2 * (3 - 4) as x from trans`,
		`select flid, year(date) as year, count(*) as cnt from trans
			group by grouping sets((flid, year(date)), (year(date)))`,
		// Aggregate-block lowering: every expression shape over aggregates
		// and grouping expressions, in HAVING and in the select list.
		`select flid, -sum(qty) as s, year(max(date)) as y from trans
			group by flid having not (count(*) > 2)`,
		`select flid, count(*) as c from trans group by flid
			having max(disc) is not null and sum(qty) between 5 and 9`,
		`select country, count(*) as c from loc group by country
			having min(city) like '%0_8' or count(*) not in (2, 3, 6)`,
		`select flid, case when count(*) > 2 then 'some' else 'few' end as k
			from trans group by flid`,
		`select year(date) + 1 as y1, count(*) as c from trans
			group by year(date) having year(date) + 1 > 1990`,
		"", "select", "select from where", "select 'unterminated",
		"select ((((1))))", "group by",
		// DML grammar coverage: WHERE-less forms, multi-assignment SET,
		// quoted identifiers, computed SET expressions, EXPLAIN routing.
		`delete from trans`,
		`delete from trans where qty = 3 and flid <= 40`,
		`delete from "Weird Table" where "a b" = 1`,
		`update trans set qty = 1`,
		`update trans set qty = qty + 1, price = price * 1.1 where tid <= 200`,
		`update loc set state = 'TX', country = 'USA' where lid = 7`,
		`update "Weird Table" set "a b" = null where "c d" is not null`,
		`explain delete from trans where fpgid = 3`,
		`explain update trans set flid = 5 where flid = 7`,
		"delete", "delete from", "update trans set", "update trans set qty",
	} {
		f.Add(sql)
	}
	for _, m := range parser.MalformedSQL {
		f.Add(m.SQL)
	}

	// One fixed paper-schema catalog for the build oracle; building mutates
	// only the graph, never the catalog.
	cat := catalog.New()
	workload.Schema(cat)

	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := parser.ParseStatement(src) // must not panic
		if err != nil {
			return
		}
		printed := stmt.SQL()
		stmt2, err := parser.ParseStatement(printed)
		if err != nil {
			t.Fatalf("printed SQL does not re-parse: %v\ninput:   %q\nprinted: %q", err, src, printed)
		}
		if again := stmt2.SQL(); again != printed {
			t.Fatalf("print not stable:\nfirst:  %q\nsecond: %q", printed, again)
		}
		// Build oracle per statement kind; semantic rejection (unknown
		// table/column, …) is fine, a panic or an unsound graph is not.
		switch s := stmt.(type) {
		case *parser.SelectStmt:
			g, err := qgm.Build(s, cat)
			if err != nil {
				return
			}
			if vs := qgmcheck.Check(g); len(vs) > 0 {
				t.Fatalf("built graph fails the static checker for %q:\n%v", src, vs)
			}
			for _, b := range g.Boxes() {
				for _, c := range b.Cols {
					checkOneShape(t, src, c.Expr)
				}
				for _, p := range b.Preds {
					checkOneShape(t, src, p)
				}
			}
		case *parser.DeleteStmt:
			_, _ = qgm.BuildDelete(s, cat)
		case *parser.UpdateStmt:
			_, _ = qgm.BuildUpdate(s, cat)
		case *parser.ExplainStmt:
			switch d := s.DML.(type) {
			case *parser.DeleteStmt:
				_, _ = qgm.BuildDelete(d, cat)
			case *parser.UpdateStmt:
				_, _ = qgm.BuildUpdate(d, cat)
			}
		}
	})
}

// checkOneShape asserts property 4 for one expression: the identity MapExpr
// is ExprEqual to e and renders as e does, and the nodes WalkExpr visits
// render, as a multiset, as the nodes MapExpr hands its function.
func checkOneShape(t *testing.T, src string, e qgm.Expr) {
	if e == nil {
		return
	}
	var walked, rebuilt []string
	qgm.WalkExpr(e, func(x qgm.Expr) bool { walked = append(walked, x.String()); return true })
	m := qgm.MapExpr(e, func(x qgm.Expr) qgm.Expr { rebuilt = append(rebuilt, x.String()); return x })
	if !qgm.ExprEqual(m, e, nil) || m.String() != e.String() {
		t.Fatalf("MapExpr with the identity changes %s into %s (input %q)", e, m, src)
	}
	slices.Sort(walked)
	slices.Sort(rebuilt)
	if !slices.Equal(walked, rebuilt) {
		t.Fatalf("WalkExpr visits %q, MapExpr rebuilds %q (input %q)", walked, rebuilt, src)
	}
}
