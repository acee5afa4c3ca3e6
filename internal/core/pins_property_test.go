package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

// servedStatements is the paper + DS suites as a dashboard sends them: the 23
// statements a deployed summary table serves, each with the literals the
// end-to-end benchmark varies (its WHERE constants and a HAVING threshold).
var servedStatements = []string{
	`select faid, state, year(date) as year, count(*) as cnt
	 from trans, loc where flid = lid and country = 'USA'
	 group by faid, state, year(date) having count(*) > 3.0421`,
	`select year(date) as year, sum(qty * price) as value
	 from trans group by year(date) having sum(qty * price) > 2.0421`,
	`select year(date) % 100 as yy, sum(qty * price) as value
	 from trans where month(date) >= 6 group by year(date) % 100
	 having sum(qty * price) > 1.5`,
	`select lid, year(date) as year, count(*) as cnt
	 from trans, loc where flid = lid and country = 'USA'
	 group by lid, year(date) having count(*) > 0.5`,
	`select tcnt, count(*) as ycnt
	 from (select year(date) as year, month(date) as month, count(*) as tcnt
	       from trans group by year(date), month(date)) m
	 where tcnt > 3.25 group by tcnt`,
	`select flid, count(*) * 100 / (select count(*) from trans) as cntpct
	 from trans, loc where flid = lid and country = 'USA'
	 group by flid having count(*) > 2.5`,
	`select flid, year(date) as year, count(*) as cnt
	 from trans where year(date) > 1990 group by flid, year(date)
	 having count(*) > 1.5`,
	`select flid, year(date) as year, count(*) as cnt
	 from trans where month(date) >= 6 group by flid, year(date)
	 having count(*) > 1.5`,
	`select flid, year(date) as year, count(*) as cnt
	 from trans where year(date) > 1990
	 group by grouping sets((flid, year(date)), (year(date)))
	 having count(*) > 1.5`,
	`select flid, year(date) as year, count(*) as cnt
	 from trans where year(date) > 1990
	 group by grouping sets((flid), (year(date)))
	 having count(*) > 1.5`,
	`select flid, count(*) as cnt from trans group by flid
	 having count(*) > 2.5`,
	`select fpgid, year(date) as year,
	 count(*) as cnt, sum(qty) as sum_qty,
	 sum(qty * price) as gross, sum(qty * price * (1 - disc)) as net,
	 avg(price) as avg_price
	 from trans group by fpgid, year(date) having count(*) > 2.5`,
	`select state, year(date) as year, sum(qty * price * (1 - disc)) as revenue
	 from trans, loc where flid = lid and country = 'USA'
	 group by state, year(date)
	 having sum(qty * price * (1 - disc)) > 2.5`,
	`select faid, sum(qty * price) as spend, count(*) as cnt
	 from trans where year(date) >= 1991
	 group by faid having sum(qty * price) > 10000.5`,
	`select fpgid, count(*) as cnt, sum(qty) as items
	 from trans where month(date) >= 7 group by fpgid
	 having count(*) > 2.5`,
	`select year(date) as year, sum(qty * price * disc) as givenaway
	 from trans where disc > 0.1 group by year(date)`,
	`select flid, count(*) as busy_months
	 from (select flid, year(date) as y, month(date) as m, count(*) as n
	       from trans group by flid, year(date), month(date)) mm
	 where n > 5.5 group by flid`,
	`select country, year(date) as year, count(*) as cnt,
	 (select count(*) from trans) as total
	 from trans, loc where flid = lid
	 group by country, year(date) having count(*) > 2.5`,
	`select fpgid, year(date) as year, min(price) as lo, max(price) as hi
	 from trans group by fpgid, year(date) having max(price) > 2.5`,
	`select city, count(*) as cnt
	 from trans, loc where flid = lid group by city
	 having count(*) > 2.5`,
	`select fpgid, year(date) as year, count(*) as cnt
	 from trans group by rollup(fpgid, year(date))
	 having count(*) > 2.5`,
	`select faid, spend
	 from (select faid, sum(qty * price) as spend from trans group by faid) a
	 where spend > (select sum(qty * price) / count(distinct faid) from trans)
	 and spend > 10000.5`,
	`select year(date) as year, avg(qty * price) as avg_basket
	 from trans group by year(date) having avg(qty * price) > 2.5`,
}

// Summary tables that carry predicates, and statements whose own predicates
// decide whether — and with what compensation — one of them serves.
var (
	predicateTables = []workload.DSAST{
		{Name: "p_year", SQL: `select flid, year(date) as year, count(*) as cnt from trans
			where year(date) > 1990 group by flid, year(date)`},
		{Name: "p_in", SQL: `select flid, faid, count(*) as cnt from trans
			where faid in (1, 2, 3) group by flid, faid`},
		{Name: "p_eq", SQL: `select flid, state, count(*) as cnt from trans, loc
			where flid = lid and country = 'USA' group by flid, state`},
		{Name: "p_lo", SQL: `select fpgid, qty, count(*) as cnt, sum(qty * price * (1 - disc)) as net from trans
			where qty <= 4 and disc <> 0.5 group by fpgid, qty`},
	}
	predicateStatements = []string{
		`select flid, count(*) as cnt from trans where year(date) > 1991 group by flid`,
		`select flid, count(*) as cnt from trans where year(date) > 1990 group by flid having count(*) > 1.5`,
		`select flid, count(*) as cnt from trans where year(date) > 1989 group by flid`,
		`select flid, year(date) as year, count(*) as cnt from trans
		 where year(date) >= 1991 and flid > 3 group by flid, year(date) having count(*) > 2`,
		`select flid, count(*) as cnt from trans where year(date) = 1992 and flid < 100 group by flid`,
		`select flid, count(*) as cnt from trans where year(date) between 1991 and 1992 group by flid`,
		`select flid, count(*) as cnt from trans where 1991 < year(date) group by flid`,
		`select flid, count(*) as cnt from trans where faid in (1, 2) group by flid`,
		`select flid, count(*) as cnt from trans where faid in (1, 2, 3) and flid <> 7 group by flid`,
		`select flid, count(*) as cnt from trans where faid = 2 group by flid`,
		`select flid, count(*) as cnt from trans where faid in (2, 4) group by flid`,
		`select state, count(*) as cnt from trans, loc
		 where flid = lid and country = 'USA' and state <> 'CA' group by state`,
		`select state, count(*) as cnt from trans, loc
		 where flid = lid and country = 'Canada' group by state`,
		`select fpgid, sum(qty * price * (1 - disc)) as net from trans
		 where qty <= 3 and disc <> 0.5 group by fpgid having sum(qty * price * (1 - disc)) > 0.5`,
		`select fpgid, count(*) as cnt from trans where qty < 4 and disc <> 0.5 and fpgid > 2 group by fpgid`,
		`select fpgid, count(*) as cnt from trans where qty = 4 and disc <> 0.5 group by fpgid`,
	}
)

// literal alternatives a vector draws from, by kind: small values, the
// summary tables' own constants and their neighbours, 0, the empty string, a
// quote.
var (
	altInts    = []int64{0, 1, 2, 3, 4, 5, 6, 7, 12, 99, 100, 101, 1989, 1990, 1991, 1992, 1993, 10000}
	altFloats  = []float64{0.0, 0.1, 0.25, 0.5, 0.75, 1.5, 2.5, 3.5, 5.5, 40.5, 10000.5, 1e9}
	altStrings = []string{"", "USA", "Canada", "Mexico", "CA", "TV", "O'Hara", "zzz"}
)

func alternative(rng *rand.Rand, like sqltypes.Value) sqltypes.Value {
	switch like.Kind() {
	case sqltypes.KindInt:
		if rng.Intn(4) == 0 {
			return sqltypes.NewInt(max(0, like.Int()-1+int64(rng.Intn(3))))
		}
		return sqltypes.NewInt(altInts[rng.Intn(len(altInts))])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(altFloats[rng.Intn(len(altFloats))])
	default:
		return sqltypes.NewString(altStrings[rng.Intn(len(altStrings))])
	}
}

// statementText is a statement cut at its literal tokens, so that it can be
// written out again around another literal vector.
type statementText struct {
	between []string // len(lits)+1 pieces of the source
	lits    []sqltypes.Value
}

func cutAtLiterals(t *testing.T, sql string) statementText {
	t.Helper()
	_, lits, err := parser.Template(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	toks, err := parser.Lex(sql)
	if err != nil {
		t.Fatal(err)
	}
	st := statementText{lits: lits}
	from := 0
	for _, tok := range toks {
		if tok.Param == 0 {
			continue
		}
		st.between = append(st.between, sql[from:tok.Pos])
		from = tok.Pos + len(tok.Text)
		if tok.Kind == parser.TokString {
			from = tok.Pos + len(sqltypes.NewString(tok.Text).SQLLiteral())
		}
	}
	st.between = append(st.between, sql[from:])
	if got := st.with(lits); got != sql {
		t.Fatalf("cut and rejoined:\n%s\nwant:\n%s", got, sql)
	}
	return st
}

func (st statementText) with(lits []sqltypes.Value) string {
	var sb strings.Builder
	for i, v := range lits {
		sb.WriteString(st.between[i])
		if v.Kind() == sqltypes.KindFloat && v.Float() == float64(int64(v.Float())) {
			fmt.Fprintf(&sb, "%.1f", v.Float()) // keep the point: 3.0, not 3
		} else {
			sb.WriteString(v.SQLLiteral())
		}
	}
	sb.WriteString(st.between[len(lits)])
	return sb.String()
}

// TestPinCompleteness is the guard on the plan cache's soundness argument: a
// plan cached for one literal vector and bound to another that agrees with it
// on every pinned slot must be the plan that planning the second text from
// scratch yields, and answer as the interpreter answers the second text. A
// read of a literal's value that planning makes without pinning it — in the
// matcher, the builder, anywhere — shows up here as a vector that hits and
// differs; no list of the reads is kept.
//
// Which slots a statement pins is found from outside: change one literal, and
// a hit says planning never looked at it.
func TestPinCompleteness(t *testing.T) {
	vectors := 200
	if testing.Short() {
		vectors = 25
	}
	e := newEnv(t, 600)
	var deployed, predicated []*core.CompiledAST
	for _, name := range []string{"ast1", "ast6", "ast7"} {
		deployed = append(deployed, e.registerAST(t, name, bench.ASTDefs[name]))
	}
	for _, d := range workload.DSASTs {
		deployed = append(deployed, e.registerAST(t, d.Name, d.SQL))
	}
	for _, d := range predicateTables {
		predicated = append(predicated, e.registerAST(t, d.Name, d.SQL))
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	run := func(g *qgm.Graph, cfg exec.Config) (*exec.Result, error) {
		return e.engine.RunCtx(ctx, g, cfg)
	}
	check := func(sql string, asts []*core.CompiledAST) (free, bound int) {
		st := cutAtLiterals(t, sql)
		prime := func() *core.PlanCache {
			cache := core.NewPlanCache(8)
			if cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store); err != nil || cr.Hit {
				t.Fatalf("%s: priming: hit=%v err=%v", sql, cr != nil && cr.Hit, err)
			}
			return cache
		}
		var unpinned []int
		for i, v := range st.lits {
			other := alternative(rng, v)
			for sqltypes.Identical(other, v) {
				other = alternative(rng, v)
			}
			lits := append([]sqltypes.Value(nil), st.lits...)
			lits[i] = other
			cr, err := e.rw.RewriteSQLCached(ctx, prime(), st.with(lits), asts, e.store)
			if err != nil {
				// With this value the text is no statement (a select item that
				// no longer is its grouping expression): a miss said so.
				if _, perr := qgm.BuildSQL(st.with(lits), e.cat); perr == nil {
					t.Fatalf("%s: %v", st.with(lits), err)
				}
				continue
			}
			if cr.Hit {
				unpinned = append(unpinned, i)
			}
		}
		if len(unpinned) == 0 {
			return 0, 0
		}

		cache := prime()
		for n := 0; n < vectors; n++ {
			lits := append([]sqltypes.Value(nil), st.lits...)
			for _, i := range unpinned {
				if rng.Intn(3) > 0 {
					lits[i] = alternative(rng, lits[i])
				}
			}
			text := st.with(lits)
			cr, err := e.rw.RewriteSQLCached(ctx, cache, text, asts, e.store)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if !cr.Hit {
				t.Fatalf("%s\nagrees with\n%s\non every pinned literal and missed", text, sql)
			}
			base, err := qgm.BuildSQL(text, e.cat)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			fresh, _ := e.rw.RewriteOrFallback(ctx, base, asts, e.store)
			if got, want := printPlan(cr.Plan), printPlan(fresh); got != want {
				t.Fatalf("%s\nbound from the plan of\n%s\nbound:\n%s\nplanned from scratch:\n%s", text, sql, got, want)
			}
			want, werr := run(base, exec.Config{Parallelism: 1, Interpret: true})
			for _, plan := range []*qgm.Graph{cr.Plan, fresh} {
				got, gerr := run(plan, exec.Config{})
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: interpreter: %v, plan: %v\n%s", text, werr, gerr, plan.Dump())
				}
				if werr != nil {
					continue
				}
				if diff := exec.EqualResults(want, got); diff != "" {
					t.Fatalf("%s\nbound from the plan of\n%s\n%s\n%s", text, sql, diff, plan.Dump())
				}
			}
			bound++
		}
		return len(unpinned), bound
	}

	var templates, total int
	for _, c := range []struct {
		asts       []*core.CompiledAST
		statements []string
		allFree    bool // the tables carry no predicate: every statement binds
	}{
		{deployed, servedStatements, true},
		{predicated, predicateStatements, false},
		{append(append([]*core.CompiledAST(nil), deployed...), predicated...), predicateStatements, false},
	} {
		for _, sql := range c.statements {
			free, bound := check(sql, c.asts)
			if c.allFree && free == 0 {
				t.Errorf("every literal pinned, nothing a dashboard could vary:\n%s", sql)
			}
			if free > 0 {
				templates++
			}
			total += bound
		}
	}
	t.Logf("%d templates with a free literal, %d bound plans checked against planning from scratch and the interpreter", templates, total)
	if templates < len(servedStatements)+len(predicateStatements)/2 {
		t.Errorf("only %d templates had a literal to vary", templates)
	}
}
