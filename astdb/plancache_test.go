package astdb_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
)

// TestQueryBindsLiteralsThroughThePlanCache: through the facade, a statement
// that differs from a cached one only in literals planning never looked at is
// a plan-cache hit with its own literals' rows; one that differs in a literal
// a decision rested on plans afresh; and an engine without a cache answers
// every one of them the same.
func TestQueryBindsLiteralsThroughThePlanCache(t *testing.T) {
	env := benchmarkSetEnv(t)
	env.MustRegisterAST("p_year", `select flid, year(date) as year, count(*) as cnt from trans
		where year(date) > 1990 group by flid, year(date)`)
	o := obs.New()
	cached, plain := env.DB(astdb.WithObserver(o)), env.DB(astdb.WithPlanCache(-1))
	ctx := context.Background()

	for i, s := range []struct {
		sql           string
		hit           bool
		ast           string
		variantMisses int64 // core.plancache.variant_misses afterwards
	}{
		// No table of the benchmark set carries a predicate: the country and
		// the threshold are free.
		{`select faid, state, year(date) as year, count(*) as cnt from trans, loc
		  where flid = lid and country = 'USA' group by faid, state, year(date) having count(*) > 3.5`, false, "ast1", 0},
		{`select faid, state, year(date) as year, count(*) as cnt from trans, loc
		  where flid = lid and country = 'Canada' group by faid, state, year(date) having count(*) > 0.25`, true, "ast1", 0},
		// p_year serves year > 1991 and cannot serve year > 1989; ast7 can.
		{`select flid, count(*) as cnt from trans where year(date) > 1991 group by flid`, false, "p_year", 0},
		{`select flid, count(*) as cnt from trans where year(date) > 1989 group by flid`, false, "ast7", 1},
		{`select flid, count(*) as cnt from trans where year(date) > 1991 group by flid`, true, "p_year", 1},
		{`SELECT flid, COUNT(*) AS cnt FROM trans WHERE year(date) > 1989 GROUP BY flid -- again`, true, "ast7", 1},
	} {
		ans, err := cached.Query(ctx, s.sql)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		ref, err := plain.Query(ctx, s.sql)
		if err != nil {
			t.Fatalf("statement %d, no cache: %v", i, err)
		}
		if ans.CacheHit != s.hit || strings.Join(ans.ASTs, ",") != s.ast || strings.Join(ref.ASTs, ",") != s.ast || ref.CacheHit {
			t.Errorf("statement %d: hit=%t ast=%q (without a cache %q), want hit=%t ast=%q",
				i, ans.CacheHit, strings.Join(ans.ASTs, ","), strings.Join(ref.ASTs, ","), s.hit, s.ast)
		}
		if diff := exec.EqualResults(ref.Result(), ans.Result()); diff != "" {
			t.Errorf("statement %d (hit=%t): %s", i, ans.CacheHit, diff)
		}
		if got := o.Counter(core.CtrCacheVariantMisses); got != s.variantMisses {
			t.Errorf("statement %d: %s = %d, want %d", i, core.CtrCacheVariantMisses, got, s.variantMisses)
		}
	}
	// Stored: the ast1 plan pinned nothing; each year plan pinned its year.
	if got := o.Counter(core.CtrCachePins); got != 2 {
		t.Errorf("%s = %d, want 2", core.CtrCachePins, got)
	}

	// A number no literal can carry is the same typed parse error either way.
	const big = "select flid from trans where flid > 99999999999999999999"
	_, cerr := cached.Query(ctx, big)
	_, perr := plain.Query(ctx, big)
	if !errors.Is(cerr, astdb.ErrParse) || perr == nil || cerr.Error() != perr.Error() {
		t.Errorf("overflowing literal:\n cached: %v\n plain:  %v", cerr, perr)
	}
}
