package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/qgm"
)

// TestMatcherNearMisses runs one (summary table, query) pair per refusal of
// the matching conditions, and per fallback that still matches, and asserts
// the decision the log records for the box pair that decides it. A pair whose
// root matches is also rewritten, and its rows compared with the original's;
// a refusal may still leave a lower box to rewrite.
// distinctAST7 is a summary table whose DISTINCT sits over a grouping block.
const distinctAST7 = `select distinct flid, year(date) as year, count(*) as c from trans group by flid, year(date)`

func TestMatcherNearMisses(t *testing.T) {
	const (
		ast7  = `select flid, year(date) as year, count(*) as cnt from trans group by flid, year(date)`
		ast7q = `select flid, year(date) as year, count(*) as cnt, min(qty) as mq from trans group by flid, year(date)`
		cube  = `select flid, faid, year(date) as year, month(date) as month, count(*) as cnt, min(qty) as mq
			from trans group by grouping sets((flid, faid, year(date)), (flid, year(date)),
			                                  (flid, year(date), month(date)), (year(date)))`
	)
	e := newEnv(t, 300)
	for i, c := range []struct {
		name, ast, query string
		want             string // a decision-log line: "subsumee vs subsumer: reason"
		rewrites         bool
	}{
		// The match function's universal conditions (§3).
		{"box types differ", `select flid from (select flid, qty from trans) x`,
			`select flid, count(*) as c from trans group by flid`,
			"GB-Q vs Sel-Q: universal condition 2: box types differ (GROUPBY vs SELECT)", false},

		// SELECT/SELECT (§4.1.1, §4.2.3, §4.2.4).
		// The query's root matches the block under the summary table's
		// DISTINCT, but no query box pairs with its root (the SELECT over the
		// GROUP BY that DISTINCT is), so nothing is rewritten:
		// TestDistinctHandling.
		{"distinct subsumer", distinctAST7,
			`select flid, year(date) as year, count(*) as c from trans group by flid, year(date)`,
			"TopSel-Q vs TopSel-Q: exact (projection only)", false},
		{"filtered scalar child", bench.ASTDefs["ast10"],
			`select flid, count(*) as cnt, (select count(*) * 2 from trans) as t2 from trans group by flid`,
			"TopSel-Q vs TopSel-Q: scalar-subquery child matched with non-projection compensation", false},
		{"two grouping children",
			`select a.flid, a.c, b.s from (select flid, count(*) as c from trans group by flid, year(date)) a,
			        (select flid as f2, sum(qty) as s from trans group by flid, year(date)) b where a.flid = b.f2`,
			`select a.flid, a.c, b.s from (select flid, count(*) as c from trans group by flid) a,
			        (select flid as f2, sum(qty) as s from trans group by flid) b where a.flid = b.f2`,
			"Sel-Q vs Sel-Q: more than one grouping child compensation", false},
		{"common join beside a grouping child",
			`select m.flid, m.c, city from (select flid, count(*) as c from trans group by flid, year(date)) m, loc where m.flid = lid`,
			`select m.flid, m.c, city from (select flid, count(*) as c from trans group by flid) m, loc where m.flid = lid`,
			"Sel-Q vs Sel-Q: §4.2.4 requires no common joins", false},
		{"distinct over a grouping child", ast7,
			`select distinct flid, count(*) as c from trans group by flid`,
			"TopSel-Q vs TopSel-Q: compensation: SELECT → GROUPBY → SELECT", true},
		{"extra child not a base table",
			`select tid, qty, m.c from trans, (select flid as f, count(*) as c from trans group by flid) m where flid = m.f`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of TopSel-Q.f1 is not provably lossless", false},
		{"extra joined by an inequality", `select tid, qty from trans, loc where flid < lid`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-loc", false},
		{"local predicate on an extra", `select tid, qty from trans, loc where flid = lid and city = state`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-loc", false},
		{"extra joined through an extra", `select tid, qty from trans, cust, acct where faid = aid and acid = cid`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-cust", false},
		{"cartesian extra", `select tid, qty, pgname from trans, pgroup`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-pgroup", false},
		{"extra joined to two children",
			`select t1.tid, t1.qty from trans t1, trans t2, loc where t1.flid = lid and t2.flid = lid and t1.tid = t2.tid`,
			`select a.tid, a.qty from trans a, trans b where a.tid = b.tid`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-loc", false},
		{"extra join without a foreign key", `select tid, qty from trans, loc where fpgid = lid`,
			`select tid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 1 (§4.1.1): the extra join of Base-loc", false},
		{"predicate not derivable", bench.ASTDefs["ast10"], bench.Queries["q11_2"],
			"Sel-Q vs Sel-Q: conditions 3 and 5 (§4.1.1/§4.2.3), re-applying a predicate: q1.date is not derivable", false},
		{"column not derivable", ast7, `select flid, qty from trans`,
			"Sel-Q vs Sel-Q: condition 4 (§4.1.1), deriving column qty: q1.qty is not derivable", false},
		{"having on a grouping column", ast7 + ` having flid > 3`,
			`select flid, count(*) as c from trans group by flid having flid > 3`,
			"TopSel-Q vs TopSel-Q: compensation: SELECT → GROUPBY → SELECT", true},
		{"pulled-up stack above a derived table",
			`select m.flid, m.c from (select flid, year(date) as y, count(*) as c from trans group by flid, year(date)) m`,
			`select m.flid, m.pct from (select flid, count(*) * 100 as pct from trans group by flid having count(*) > 2) m`,
			"Sel-Q vs Sel-Q: compensation: SELECT → GROUPBY → SELECT → SELECT", true},
		{"grouping column not pulled up", `select flid, count(*) as cnt from trans group by flid, year(date)`,
			`select year(date) as y, count(*) as c from trans group by year(date)`,
			"TopSel-Q vs TopSel-Q: pulling the grouping compensation up (§4.2.4): q3.g1 is not derivable", false},
		{"predicate not pulled up", `select year(date) as year, count(*) as cnt from trans group by year(date), month(date)`,
			`select year(date) as year, count(*) as cnt from trans where month(date) >= 6 group by year(date)`,
			"TopSel-Q vs TopSel-Q: pulling the grouping compensation up (§4.2.4): q3.g1 is not derivable", false},
		{"aggregate not pulled up", `select flid, year(date) as year, count(*) + 0 as cnt from trans group by flid, year(date)`,
			`select flid, count(*) as c from trans group by flid`,
			"TopSel-Q vs TopSel-Q: pulling the grouping compensation up (§4.2.4): q3.agg0 is not derivable", false},
		{"pull-up through a derived table", bench.ASTDefs["ast8"],
			`select tcnt, count(*) as n from (select year(date) as year, count(*) as tcnt from trans
			                                  where month(date) > 6 group by year(date)) m group by tcnt`,
			"Sel-Q vs Sel-Q: pulling the grouping compensation up (§4.2.4): q4.month is not derivable", false},
		{"grouping scalar child",
			`select flid, count(*) as cnt, (select count(*) as n from trans group by flid) as totcnt from trans group by flid, year(date)`,
			`select flid, count(*) as cnt, (select count(*) from trans) as totcnt from trans group by flid`,
			"TopSel-Q vs TopSel-Q: scalar-subquery child matched with non-projection compensation", false},
		{"having aggregate not pulled up", `select flid, year(date) as year, count(*) + 0 as cnt from trans group by flid, year(date)`,
			`select flid, count(*) as c from trans group by flid having count(*) > 2`,
			"TopSel-Q vs TopSel-Q: pulling the grouping compensation up (§4.2.4): q3.agg0 is not derivable", false},
		{"scalar child not output", `select flid, year(date) as year, count(*) as cnt, (select count(*) from trans) + 0 as totcnt
			from trans group by flid, year(date)`, bench.Queries["q10"],
			"TopSel-Q vs TopSel-Q: pulling the grouping compensation up (§4.2.4): q7.c0 is not derivable", false},
		{"derived-table column not pulled up",
			`select m.flid from (select flid, year(date) as y, count(*) as c from trans group by flid, year(date)) m`,
			`select m.flid, m.pct from (select flid, count(*) * 100 as pct from trans group by flid) m`,
			"Sel-Q vs Sel-Q: pulling the grouping compensation up (§4.2.4): q4.c is not derivable", false},
		{"scalar threaded through a derived table",
			`select m.flid, m.c, (select count(*) from trans) as tot
			from (select flid, year(date) as y, count(*) as c from trans group by flid, year(date)) m`,
			`select m.flid, m.pct, (select count(*) from trans) as tot
			from (select flid, count(*) * 100 as pct from trans group by flid) m`,
			"Sel-Q vs Sel-Q: compensation: SELECT → GROUPBY → SELECT → SELECT", true},
		{"equal grouping columns",
			`select flid, lid, year(date) as year, count(*) as cnt from trans, loc where flid = lid group by flid, lid, year(date)`,
			`select lid, count(*) as cnt from trans, loc where flid = lid group by lid`,
			"TopSel-Q vs TopSel-Q: compensation: SELECT → GROUPBY → SELECT", true},

		// GROUP BY/GROUP BY (§4.1.2, §4.2.1, §4.2.2, §5).
		{"recursive copy of a HAVING box", bench.ASTDefs["ast8"],
			`select tcnt, count(*) as ycnt from (select year(date) as year, count(*) as tcnt from trans
			                                     group by year(date) having count(*) > 2) m group by tcnt`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY → SELECT → SELECT → GROUPBY", true},
		{"recursive match fails",
			`select year, tcnt, max(month) as mm from (select year(date) as year, month(date) as month, count(*) as tcnt
			                                           from trans group by year(date), month(date)) m group by year, tcnt`,
			`select tcnt, count(*) as ycnt from (select year(date) as year, count(*) as tcnt from trans group by year(date)) m group by tcnt`,
			"GB-Q vs GB-Q: recursive match of the compensation GROUP BY with the subsumer failed (§4.2.2)", false},
		{"recursive copy of a rejoin", bench.ASTDefs["ast8"],
			`select tcnt, count(*) as ycnt, max(nloc) as n
			from (select year(date) as year, count(*) as tcnt, (select count(*) from loc) as nloc from trans group by year(date)) m
			group by tcnt`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY → SELECT → SELECT → GROUPBY", true},
		{"rejoin written key first", ast7,
			`select state, count(*) as cnt from trans, loc where lid = flid group by state`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY", true},
		{"rejoin on a non-key column", ast7,
			`select flid, count(*) as cnt from trans, acct where flid = acid group by flid`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY", true},
		{"rejoin of a derived table", ast7,
			`select flid, count(*) as cnt from trans, (select lid from loc where country = 'USA') u where flid = u.lid group by flid`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY", true},
		{"scalar rejoin", ast7,
			`select flid, count(*) as cnt from trans where flid > (select min(lid) from loc) group by flid`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY", true},
		{"count of a nullable argument", ast7q,
			`select flid, count(case when qty > 2 then qty end) as c from trans group by flid`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
		{"sum not derivable", ast7q, `select flid, sum(qty) as s from trans group by flid`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
		{"sum without a row count", `select flid, year(date) as year, sum(qty) as s from trans group by flid, year(date)`,
			`select year(date) as year, sum(flid) as s from trans group by year(date)`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
		{"max not derivable", ast7q, `select flid, max(qty) as m from trans group by flid`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
		{"nullable cube column", `select flid, case when qty > 2 then qty end as bigq, count(*) as cnt from trans
			group by grouping sets ((flid, case when qty > 2 then qty end), (flid))`,
			`select flid, count(*) as cnt from trans group by flid`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
		{"every cuboid, no slicing", cube,
			`select flid, faid, year(date) as year, month(date) as month, count(*) as cnt from trans
			group by grouping sets((flid, faid, year(date)), (flid, year(date)), (flid, year(date), month(date)), (year(date)))`,
			"GB-Q vs GB-Q: exact (projection only)", true},
		{"cuboids mapped inconsistently",
			`select flid, lid, year(date) as year, count(*) as cnt from trans, loc where flid = lid
			group by grouping sets ((flid, year(date)), (lid))`,
			`select flid, year(date) as year, count(*) as cnt from trans group by grouping sets ((flid, year(date)), (flid))`,
			"GB-Q vs GB-Q: compensation: SELECT → GROUPBY", true},
		{"cube aggregate not direct", cube,
			`select flid, year(date) as year, sum(qty) as s from trans group by grouping sets ((flid, year(date)), (year(date)))`,
			"GB-Q vs GB-Q: no subsumer cuboid satisfies", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			name := fmt.Sprintf("near%d", i)
			ast, err := e.rw.CompileAST(catalog.ASTDef{Name: name, SQL: c.ast})
			if err != nil {
				t.Fatal(err)
			}
			g, err := qgm.BuildSQL(c.query, e.cat)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, te := range e.rw.Explain(context.Background(), g, ast) {
				lines = append(lines, te.Subsumee+" vs "+te.Subsumer+": "+te.Reason)
			}
			if !strings.Contains(strings.Join(lines, "\n"), c.want) {
				t.Fatalf("no decision %q in the log:\n%s", c.want, strings.Join(lines, "\n"))
			}
			if c.rewrites {
				e.mustRewrite(t, c.query, e.registerAST(t, name, c.ast))
			}
		})
	}
}
