package astdb

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// Report is the outcome of Explain: per-candidate matching decisions, the
// chosen plan, and row counts. Its rendering is deterministic for a given
// catalog, data, and query — it names only original query/AST box labels and
// compensation box kinds, never generated compensation labels — so golden
// tests can lock the format.
type Report struct {
	SQL        string
	Candidates []Candidate

	// CandidatesPruned counts the usable candidates the signature index would
	// refuse before full matching on the production path (0 when pruning is
	// disabled via Options.NoPrune).
	CandidatesPruned int

	// ChosenAST names the summary table the cost-based rewrite picked; ""
	// means the query runs on base tables.
	ChosenAST     string
	ChosenPattern string
	// EstBaseRows / EstRewrittenRows are the scan-cost estimates for the
	// chosen candidate (zero when no candidate was chosen).
	EstBaseRows      int
	EstRewrittenRows int

	// ActualRows counts the rows the chosen plan produced; ExecError records
	// an execution failure instead. ExecMode reports how the executor
	// evaluated the plan: "vectorized" when at least one box ran on the chunk
	// pipeline, "interpreted" when none did (Config.Interpret, or every box
	// declined). RowPathBoxes lists, one decline reason per box, the boxes the
	// pipeline handed to the row path (exec.Result.Declined).
	ActualRows   int
	ExecMode     string
	RowPathBoxes []string
	ExecError    string
}

// Candidate is one summary table's EXPLAIN entry.
type Candidate struct {
	AST    string
	Status string // "fresh", "stale", or "quarantined"
	Usable bool   // false when status gates it out of matching
	Pruned bool   // the signature index would skip this candidate pre-match

	Matched      bool
	Exact        bool
	Pattern      string // paper pattern ("§4.1.1" … "§5.2") when matched
	MatchedBox   string // query box label the AST can replace
	Compensation string // compensation box kinds, or "projection only"

	// FailReason is the decisive failure for unmatched candidates: the last
	// rejected pair's reason, naming the paper condition that failed.
	FailReason string
	FailedPair string // "subsumee vs subsumer" box labels of that rejection

	// BaseRows / RewrittenRows are the scan-cost estimates (rows read by the
	// replaced subtree vs by the summary table plus rejoins) when matched.
	BaseRows      int
	RewrittenRows int

	Trace []core.TraceEntry
}

// Explain reports the rewrite decision for one SQL query. It parses the
// statement once and plans it through core.ExplainRewrite — the selection loop
// and verification gate Query plans through, fed the same store for costs —
// with tracing on and every registered summary table matched once, in name
// order (unusable and pruned ones too, for their decision log). What the
// report names as the chosen plan is therefore what Query runs, by
// construction. The chosen plan is then executed for its actual row count.
// Explain bypasses the plan cache and never mutates engine state beyond
// counters.
func (e *Engine) Explain(ctx context.Context, sql string) (*Report, error) {
	span := e.startSpan(ctx, "explain")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)

	g, err := e.parse(span, sql)
	if err != nil {
		return nil, err
	}
	plan, res, decisions := e.rw.ExplainRewrite(ctx, g, sortedByName(e.set.Load().asts), e.store)
	rep := &Report{SQL: sql}
	for _, d := range decisions {
		rep.Candidates = append(rep.Candidates, e.candidateOf(d))
		if d.Pruned {
			rep.CandidatesPruned++
		}
		if res != nil && d.AST == res.AST {
			rep.ChosenAST = d.AST.Def.Name
			rep.ChosenPattern = d.Match.Pattern
			rep.EstBaseRows, rep.EstRewrittenRows = d.BaseRows, d.RewrittenRows
		}
	}
	if r, err := e.runPlan(ctx, plan); err != nil {
		rep.ExecError = err.Error()
	} else {
		rep.ActualRows = len(r.Rows)
		rep.ExecMode = r.Mode
		rep.RowPathBoxes = r.Declined
	}
	return rep, nil
}

// candidateOf summarizes one selection decision as an EXPLAIN entry.
func (e *Engine) candidateOf(d core.Decision) Candidate {
	c := Candidate{AST: d.AST.Def.Name, Status: "fresh", Usable: d.Usable, Pruned: d.Pruned, Trace: d.Trace}
	st := e.cat.Status(c.AST)
	switch {
	case st.Quarantined:
		c.Status = "quarantined"
	case st.Stale:
		c.Status = "stale"
	}
	if d.Match == nil {
		c.FailReason = "no candidate box pairs"
		for i := len(d.Trace) - 1; i >= 0; i-- {
			if !d.Trace[i].Matched {
				c.FailReason = d.Trace[i].Reason
				c.FailedPair = d.Trace[i].Subsumee + " vs " + d.Trace[i].Subsumer
				break
			}
		}
		return c
	}
	c.Matched = true
	c.Exact = d.Match.Exact
	c.Pattern = d.Match.Pattern
	c.MatchedBox = d.Match.Subsumee.Label
	c.Compensation = compSummary(d.Match)
	c.BaseRows, c.RewrittenRows = d.BaseRows, d.RewrittenRows
	return c
}

// compSummary names a match's compensation by box kinds only — generated
// compensation labels carry a global counter and would break determinism.
func compSummary(mm *core.Match) string {
	if mm.Exact {
		return "projection only"
	}
	kinds := make([]string, len(mm.Stack))
	for i, b := range mm.Stack {
		kinds[i] = b.Kind.String()
	}
	return strings.Join(kinds, " → ")
}

// Render writes the report as the deterministic human-readable EXPLAIN text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN %s\n", strings.Join(strings.Fields(r.SQL), " "))
	fmt.Fprintf(w, "== candidates (%d) ==\n", len(r.Candidates))
	for _, c := range r.Candidates {
		status := c.Status
		if !c.Usable {
			status += ", unusable"
		}
		fmt.Fprintf(w, "%s [%s]\n", c.AST, status)
		for _, te := range c.Trace {
			mark := "✗"
			if te.Matched {
				mark = "✓"
			}
			fmt.Fprintf(w, "  %s %s vs %s: %s\n", mark, te.Subsumee, te.Subsumer, te.Reason)
		}
		if c.Matched {
			fmt.Fprintf(w, "  matched: pattern %s at %s (compensation: %s)\n", c.Pattern, c.MatchedBox, c.Compensation)
			fmt.Fprintf(w, "  estimated rows: base=%d rewritten=%d\n", c.BaseRows, c.RewrittenRows)
		} else if c.FailedPair != "" {
			fmt.Fprintf(w, "  rejected: %s (%s)\n", c.FailReason, c.FailedPair)
		} else {
			fmt.Fprintf(w, "  rejected: %s\n", c.FailReason)
		}
	}
	fmt.Fprintf(w, "candidates pruned: %d\n", r.CandidatesPruned)
	fmt.Fprintln(w, "== plan ==")
	if r.ChosenAST != "" {
		fmt.Fprintf(w, "reads summary table %s (pattern %s), estimated rows: base=%d rewritten=%d\n",
			r.ChosenAST, r.ChosenPattern, r.EstBaseRows, r.EstRewrittenRows)
	} else {
		fmt.Fprintln(w, "reads base tables (no summary table is estimated cheaper)")
	}
	if r.ExecError != "" {
		fmt.Fprintf(w, "execution failed: %s\n", r.ExecError)
	} else {
		mode := r.ExecMode
		if n := len(r.RowPathBoxes); n > 0 {
			mode += fmt.Sprintf(" (%d on the row path: %s)", n, strings.Join(r.RowPathBoxes, ", "))
		}
		fmt.Fprintf(w, "execution: %s, actual rows: %d\n", mode, r.ActualRows)
	}
}

// String renders the report to a string.
func (r *Report) String() string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}
