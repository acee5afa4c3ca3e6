package astdb_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/astdb"
	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScale keeps the synthetic star schema small enough for fast tests
// while producing non-trivial row-count estimates.
const goldenScale = 1500

// explainEngine builds a facade over the paper's star schema with exactly one
// summary table registered, so each golden report stays focused.
func explainEngine(t *testing.T, astName string) *astdb.Engine {
	t.Helper()
	env := bench.NewEnvDefault(goldenScale)
	if _, err := env.RegisterAST(astName, bench.ASTDefs[astName]); err != nil {
		t.Fatalf("register %s: %v", astName, err)
	}
	return env.DB()
}

// TestExplainGolden locks the EXPLAIN report format for three paper
// scenarios: a clean match (Figure 2), a semantic rejection whose failing
// condition must be named (Table 1), and a match needing rejoin compensation
// (Figure 8).
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name  string
		query string
		ast   string
	}{
		{"clean_match_q1_ast1", "q1", "ast1"},
		{"rejected_qbad_astbad", "qbad", "astbad"},
		{"rejoin_q7_ast7", "q7", "ast7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := explainEngine(t, tc.ast)
			rep, err := db.Explain(context.Background(), bench.Queries[tc.query])
			if err != nil {
				t.Fatalf("explain: %v", err)
			}
			got := rep.String()

			// The report must be reproducible run to run (matching mutates
			// throwaway graphs only; compensation labels never leak in).
			rep2, err := db.Explain(context.Background(), bench.Queries[tc.query])
			if err != nil {
				t.Fatalf("explain (second run): %v", err)
			}
			if got != rep2.String() {
				t.Fatalf("EXPLAIN is not deterministic:\nfirst:\n%s\nsecond:\n%s", got, rep2.String())
			}

			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestExplainNamesFailingCondition pins the report semantics the golden files
// rely on: the rejected candidate must name the paper condition that failed,
// and the rejoin case must report a compensation.
func TestExplainNamesFailingCondition(t *testing.T) {
	db := explainEngine(t, "astbad")
	rep, err := db.Explain(context.Background(), bench.Queries["qbad"])
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chosen) != 0 {
		t.Fatalf("qbad must not rewrite against astbad; chose %+v", rep.Chosen)
	}
	if len(rep.Candidates) != 1 || rep.Candidates[0].Matched {
		t.Fatalf("expected one unmatched candidate, got %+v", rep.Candidates)
	}
	if !strings.Contains(rep.Candidates[0].FailReason, "condition 2") {
		t.Errorf("rejection must name the failing condition, got %q", rep.Candidates[0].FailReason)
	}

	db7 := explainEngine(t, "ast7")
	rep7, err := db7.Explain(context.Background(), bench.Queries["q7"])
	if err != nil {
		t.Fatal(err)
	}
	if len(rep7.Chosen) != 1 || rep7.Chosen[0].AST != "ast7" {
		t.Fatalf("q7 should choose ast7 alone, chose %+v", rep7.Chosen)
	}
	c := rep7.Candidates[0]
	if !c.Matched || c.Compensation == "" || c.Compensation == "projection only" {
		t.Errorf("q7/ast7 must match with a real compensation, got %+v", c)
	}
	if ch := rep7.Chosen[0]; ch.BaseRows <= ch.RewrittenRows {
		t.Errorf("chosen rewrite must be estimated cheaper: base=%d rewritten=%d",
			ch.BaseRows, ch.RewrittenRows)
	}
}

// TestExplainQuotesTheServingRefusal: an unmatched candidate's "rejected:"
// line quotes the last refused pair whose subsumer the summary table's root
// reads through ForEach quantifiers. ast10's scalar subquery box (Sel-Q.h0)
// is refused after its main SELECT, but could never have served q11_2.
func TestExplainQuotesTheServingRefusal(t *testing.T) {
	for _, tc := range []struct{ query, ast, pair, reason string }{
		{"q11_2", "ast10", "Sel-Q vs Sel-Q", "q1.date is not derivable"},
		{"qbad", "astbad", "TopSel-Q vs TopSel-Q", "condition 2"},
	} {
		rep, err := explainEngine(t, tc.ast).Explain(context.Background(), bench.Queries[tc.query])
		if err != nil {
			t.Fatal(err)
		}
		if c := rep.Candidates[0]; c.Matched || c.FailedPair != tc.pair || !strings.Contains(c.FailReason, tc.reason) {
			t.Errorf("%s against %s: rejected %q (%s), want %s for %q", tc.query, tc.ast, c.FailReason, c.FailedPair, tc.pair, tc.reason)
		}
	}
}
