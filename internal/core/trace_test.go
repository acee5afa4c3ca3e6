package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
)

// TestExplainTable1 checks the EXPLAIN story for the paper's Table 1
// counter-example: the trace must attribute the rejection to the subsumer's
// unmatched HAVING predicate (condition 2), which is exactly what Figure 15's
// translation walkthrough detects.
func TestExplainTable1(t *testing.T) {
	e := newEnv(t, 500)
	ast, err := e.rw.CompileAST(catalog.ASTDef{Name: "astexp", SQL: `
		select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)
		having count(*) > 2`})
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.BuildSQL("select flid, count(*) as cnt from trans group by flid", e.cat)
	if err != nil {
		t.Fatal(err)
	}
	entries := e.rw.Explain(context.Background(), g, ast)
	if len(entries) == 0 {
		t.Fatal("no trace entries")
	}
	var sawCondition2, sawMatch bool
	for _, te := range entries {
		if te.Matched {
			sawMatch = true // lower boxes do match
		}
		if !te.Matched && strings.Contains(te.Reason, "condition 2") {
			sawCondition2 = true
		}
	}
	if !sawMatch {
		t.Errorf("expected some lower-level matches in the trace: %+v", entries)
	}
	if !sawCondition2 {
		t.Errorf("expected a condition-2 rejection in the trace: %+v", entries)
	}
}

// TestExplainSuccessfulMatch records compensation shapes for a match.
func TestExplainSuccessfulMatch(t *testing.T) {
	e := newEnv(t, 500)
	ast, err := e.rw.CompileAST(catalog.ASTDef{Name: "astexp2", SQL: `
		select flid, year(date) as year, count(*) as cnt
		from trans group by flid, year(date)`})
	if err != nil {
		t.Fatal(err)
	}
	g, err := qgm.BuildSQL("select flid, count(*) as cnt from trans group by flid", e.cat)
	if err != nil {
		t.Fatal(err)
	}
	entries := e.rw.Explain(context.Background(), g, ast)
	found := false
	for _, te := range entries {
		if te.Matched && strings.Contains(te.Reason, "compensation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a compensated match in the trace: %+v", entries)
	}
}
