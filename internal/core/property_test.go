package core_test

// Property-based soundness testing: generate random aggregation queries and
// random AST definitions over the star schema; whenever the matcher produces
// a rewrite, executing it must give exactly the original result. This is the
// paper's correctness obligation ("the matching conditions are correct only
// when viewed together with the associated compensation") checked
// mechanically over thousands of query/AST pairs.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/qgmcheck"
)

// qgen generates random single-block aggregation queries over trans (and
// optionally loc).
type qgen struct {
	rng *rand.Rand
}

var dims = []string{"faid", "flid", "fpgid", "qty", "year(date)", "month(date)"}
var aggs = []string{"count(*)", "sum(qty)", "sum(qty * price)", "min(price)", "max(price)", "count(qty)"}
var preds = []string{"year(date) > 1990", "month(date) >= 6", "qty > 2", "price > 250", "qty > 1"}

func (g *qgen) pickDims(n int) []string {
	perm := g.rng.Perm(len(dims))
	out := make([]string, 0, n)
	for _, i := range perm[:n] {
		out = append(out, dims[i])
	}
	return out
}

func (g *qgen) genQuery() string {
	nd := 1 + g.rng.Intn(3)
	ds := g.pickDims(nd)
	// Occasionally generate a SELECT DISTINCT query (canonicalized to GROUP
	// BY at build time — the footnote-2 path).
	if g.rng.Intn(8) == 0 {
		var cols []string
		for i, d := range ds {
			cols = append(cols, fmt.Sprintf("%s as d%d", d, i))
		}
		sql := "select distinct " + strings.Join(cols, ", ") + " from trans"
		if g.rng.Intn(2) == 0 {
			sql += " where " + preds[g.rng.Intn(len(preds))]
		}
		return sql
	}
	na := 1 + g.rng.Intn(2)
	var cols []string
	var gb []string
	for i, d := range ds {
		cols = append(cols, fmt.Sprintf("%s as d%d", d, i))
		gb = append(gb, d)
	}
	joinLoc := g.rng.Intn(4) == 0
	pool := aggs
	if joinLoc {
		// Stress the rejoin-column aggregate relaxation.
		pool = append(append([]string(nil), aggs...),
			"sum(lid)", "min(state)", "max(city)", "count(distinct state)")
	}
	for i := 0; i < na; i++ {
		cols = append(cols, fmt.Sprintf("%s as a%d", pool[g.rng.Intn(len(pool))], i))
	}
	var sb strings.Builder
	sb.WriteString("select " + strings.Join(cols, ", ") + " from trans")
	if joinLoc {
		sb.WriteString(", loc")
	}
	var ws []string
	if joinLoc {
		ws = append(ws, "flid = lid")
		if g.rng.Intn(2) == 0 {
			ws = append(ws, "country = 'USA'")
		}
	}
	np := g.rng.Intn(3)
	for i := 0; i < np; i++ {
		ws = append(ws, preds[g.rng.Intn(len(preds))])
	}
	if len(ws) > 0 {
		sb.WriteString(" where " + strings.Join(ws, " and "))
	}
	switch g.rng.Intn(5) {
	case 0:
		sb.WriteString(" group by rollup(" + strings.Join(gb, ", ") + ")")
	case 1:
		if len(gb) >= 2 {
			sb.WriteString(fmt.Sprintf(" group by grouping sets((%s), (%s))",
				strings.Join(gb, ", "), gb[0]))
		} else {
			sb.WriteString(" group by " + strings.Join(gb, ", "))
		}
	default:
		sb.WriteString(" group by " + strings.Join(gb, ", "))
	}
	if g.rng.Intn(3) == 0 {
		sb.WriteString(" having count(*) > 1")
	}
	return sb.String()
}

// genAST generates a random AST definition: usually finer-grained than the
// queries (more dimensions, no filters) so that matches are common — but not
// always, so no-match paths are exercised too.
func (g *qgen) genAST() string {
	nd := 2 + g.rng.Intn(3)
	ds := g.pickDims(nd)
	var cols []string
	for i, d := range ds {
		name := fmt.Sprintf("g%d", i)
		cols = append(cols, fmt.Sprintf("%s as %s", d, name))
	}
	cols = append(cols, "count(*) as cnt", "sum(qty) as sq", "sum(qty * price) as sv",
		"min(price) as mn", "max(price) as mx", "count(qty) as cq")
	var sb strings.Builder
	sb.WriteString("select " + strings.Join(cols, ", ") + " from trans")
	if g.rng.Intn(4) == 0 {
		sb.WriteString(" where " + preds[g.rng.Intn(len(preds))])
	}
	if g.rng.Intn(4) == 0 {
		sb.WriteString(" group by rollup(" + strings.Join(ds, ", ") + ")")
	} else {
		sb.WriteString(" group by " + strings.Join(ds, ", "))
	}
	return sb.String()
}

func TestPropertyRewriteSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	e := newEnv(t, 1500)
	rng := rand.New(rand.NewSource(20000521))
	g := &qgen{rng: rng}

	const trials = 400
	matched, verified := 0, 0
	for i := 0; i < trials; i++ {
		astSQL := g.genAST()
		querySQL := g.genQuery()

		astName := fmt.Sprintf("past%d", i)
		ca, err := e.rw.CompileAST(catalog.ASTDef{Name: astName, SQL: astSQL})
		if err != nil {
			t.Fatalf("trial %d: compile AST %q: %v", i, astSQL, err)
		}
		astRes, err := e.engine.Run(ca.Graph)
		if err != nil {
			t.Fatalf("trial %d: materialize %q: %v", i, astSQL, err)
		}
		e.store.Put(ca.Table, astRes.Rows)

		orig, err := qgm.BuildSQL(querySQL, e.cat)
		if err != nil {
			t.Fatalf("trial %d: build %q: %v", i, querySQL, err)
		}
		origRes, err := e.engine.Run(orig)
		if err != nil {
			t.Fatalf("trial %d: run %q: %v", i, querySQL, err)
		}

		q2, _ := qgm.BuildSQL(querySQL, e.cat)
		res := e.rw.Rewrite(q2, ca)
		e.store.Drop(astName)
		if res == nil {
			continue
		}
		matched++
		if verr := qgmcheck.Structural(q2); verr != nil {
			t.Fatalf("trial %d: invalid rewritten graph: %v\nquery: %s\nast: %s\n%s",
				i, verr, querySQL, astSQL, q2.Dump())
		}
		newRes, err := e.engine.Run(q2)
		if err != nil {
			// The AST table was dropped above; re-materialize for execution.
			e.store.Put(ca.Table, astRes.Rows)
			newRes, err = e.engine.Run(q2)
			e.store.Drop(astName)
			if err != nil {
				t.Fatalf("trial %d: run rewritten: %v\nquery: %s\nast: %s\nnew: %s",
					i, err, querySQL, astSQL, q2.SQL())
			}
		}
		if diff := exec.EqualResults(origRes, newRes); diff != "" {
			t.Fatalf("trial %d: UNSOUND rewrite: %s\nquery: %s\nast:   %s\nnewq:  %s\ngraph:\n%s",
				i, diff, querySQL, astSQL, q2.SQL(), q2.Dump())
		}
		verified++
	}
	t.Logf("matched %d/%d random query/AST pairs, all verified", matched, trials)
	if matched < trials/20 {
		t.Fatalf("generator too weak: only %d/%d matched", matched, trials)
	}
}

// TestPropertyRewriteSoundnessAblations re-runs a smaller sweep under each
// ablation option: the alternatives must stay sound (they change plan shape,
// never results).
func TestPropertyRewriteSoundnessAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"leafFirst", core.Options{LeafFirstDerivation: true}},
		{"alwaysRegroup", core.Options{AlwaysRegroup: true}},
		{"firstCuboid", core.Options{FirstCuboid: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := newEnv(t, 800)
			e.rw = core.NewRewriter(e.cat, mode.opts)
			rng := rand.New(rand.NewSource(77))
			g := &qgen{rng: rng}
			matched := 0
			for i := 0; i < 120; i++ {
				astSQL := g.genAST()
				querySQL := g.genQuery()
				astName := fmt.Sprintf("p%s%d", mode.name, i)
				ca, err := e.rw.CompileAST(catalog.ASTDef{Name: astName, SQL: astSQL})
				if err != nil {
					t.Fatal(err)
				}
				astRes, err := e.engine.Run(ca.Graph)
				if err != nil {
					t.Fatal(err)
				}
				e.store.Put(ca.Table, astRes.Rows)
				orig, err := qgm.BuildSQL(querySQL, e.cat)
				if err != nil {
					t.Fatal(err)
				}
				origRes, err := e.engine.Run(orig)
				if err != nil {
					t.Fatal(err)
				}
				q2, _ := qgm.BuildSQL(querySQL, e.cat)
				if e.rw.Rewrite(q2, ca) == nil {
					e.store.Drop(astName)
					continue
				}
				matched++
				newRes, err := e.engine.Run(q2)
				if err != nil {
					t.Fatalf("trial %d: %v\nquery: %s\nast: %s", i, err, querySQL, astSQL)
				}
				if diff := exec.EqualResults(origRes, newRes); diff != "" {
					t.Fatalf("trial %d UNSOUND under %s: %s\nquery: %s\nast: %s\nnewq: %s",
						i, mode.name, diff, querySQL, astSQL, q2.SQL())
				}
				e.store.Drop(astName)
			}
			t.Logf("%s: %d/120 matched, all verified", mode.name, matched)
		})
	}
}
