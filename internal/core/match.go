// Package core implements the paper's contribution: the AST matching and
// query-rewrite algorithm (§3–§6). It consists of
//
//   - the navigator (§3), which sweeps the query and AST QGM graphs
//     bottom-up, invoking the match function on each candidate
//     subsumee/subsumer box pair after the pairs of their children, and
//     returns the query boxes matched with the AST's root box;
//   - the match function, with sufficient matching conditions and
//     compensation construction for the paper's patterns: SELECT/SELECT with
//     exact child matches (§4.1.1), GROUP BY/GROUP BY (§4.1.2), GROUP BY with
//     SELECT-only child compensation (§4.2.1), GROUP BY with GROUP BY child
//     compensation (§4.2.2, recursive), SELECT with SELECT-only (§4.2.3) and
//     with GROUP BY (§4.2.4) child compensation, and the multidimensional
//     patterns cube-AST (§5.1) and cube-query/cube-AST (§5.2);
//   - the expression translation and derivation machinery (§6) that rewrites
//     subsumee expressions into the subsumer's column space, tests semantic
//     predicate equivalence/subsumption, and computes compensating
//     expressions from the subsumer's output columns.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/qgm"
)

// Options tune documented design choices of the algorithm; the defaults
// reproduce the paper. Each deviation is exercised by an ablation benchmark.
type Options struct {
	// LeafFirstDerivation disables the paper's minimal-QCL derivation
	// preference (§4.1.1 example: derive amt as value*(1-disc), not
	// qty*price*(1-disc)); instead expressions are decomposed to leaf columns
	// before consulting subsumer QCLs.
	LeafFirstDerivation bool

	// AlwaysRegroup disables the 1:N-rejoin regrouping elimination of §4.2.1
	// (example 2: NewQ7 needs no GROUP BY because Loc joins 1:N on its key).
	AlwaysRegroup bool

	// FirstCuboid disables the smallest-cuboid selection of §5.1 and takes
	// the first matching subsumer grouping set instead.
	FirstCuboid bool

	// AllowStale lets the rewriter use ASTs whose materialization is marked
	// stale in the catalog (e.g. after a failed refresh). Quarantined ASTs
	// are never used regardless. Default false: staleness disables an AST.
	AllowStale bool

	// NoPrune disables the catalog signature index, so every usable AST goes
	// through full matching. For ablation and the pruned-vs-unpruned
	// benchmarks; pruning is conservative, so results are identical either
	// way.
	NoPrune bool
}

// Match records an established subsumption relationship between a query box
// (the subsumee) and an AST box (the subsumer), per the paper's definition in
// §3: a graph containing the subsumer subgraph plus the compensation is
// semantically equivalent to the subsumee subgraph.
type Match struct {
	Subsumee *qgm.Box
	Subsumer *qgm.Box

	// Pattern names the paper pattern that established the match ("§4.1.1" …
	// "§4.2.4", "§5.1", "§5.2", "base table"); EXPLAIN and the per-pattern
	// match counters report it.
	Pattern string

	// Exact marks an empty compensation: subsumee output column i is
	// subsumer output column ColMap[i] (the subsumer may produce extra
	// columns, footnote 5).
	Exact  bool
	ColMap []int

	// Stack is the compensation for non-exact matches: a bottom-to-top chain
	// of newly created boxes. The bottom box consumes the subsumer through
	// SubQ; boxes may additionally consume rejoin children (query-side
	// boxes). The top box's column i computes subsumee column i.
	Stack []*qgm.Box
	SubQ  *qgm.Quantifier

	// compBoxes indexes every box in Stack by ID, for translation.
	compBoxes map[int]bool
}

// Comp returns the top compensation box of a non-exact match.
func (m *Match) Comp() *qgm.Box {
	return m.Stack[len(m.Stack)-1]
}

func (m *Match) indexComp() {
	m.compBoxes = make(map[int]bool, len(m.Stack))
	for _, b := range m.Stack {
		m.compBoxes[b.ID] = true
	}
}

func (m *Match) isCompBox(b *qgm.Box) bool { return b != nil && m.compBoxes[b.ID] }

// hasGroupingComp reports whether the compensation contains a GROUP BY box.
func (m *Match) hasGroupingComp() bool {
	for _, b := range m.Stack {
		if b.Kind == qgm.GroupByBox {
			return true
		}
	}
	return false
}

type pairKey struct{ e, r int }

// TraceEntry records one candidate-pair decision for EXPLAIN-style output.
type TraceEntry struct {
	Subsumee string // query box label
	Subsumer string // AST box label
	Matched  bool
	Exact    bool
	Pattern  string // paper pattern that matched ("§4.1.1" …); empty on rejects
	Reason   string // failure reason (references the paper's condition) or compensation summary
}

// Matcher runs the navigator over one (query graph, AST graph) pair.
type Matcher struct {
	cat  *catalog.Catalog
	opts Options
	obsv *obs.Observer // set by the Rewriter; nil when observability is off

	eg *qgm.Graph // subsumee (query) graph; compensation boxes allocate here
	rg *qgm.Graph // subsumer (AST) graph

	memo  map[pairKey]*Match
	trace bool         // record log; set by the Rewriter for EXPLAIN
	log   []TraceEntry // the decision log, one TraceEntry per candidate pair
}

// NewMatcher prepares a matcher for a query graph and an AST graph.
func NewMatcher(cat *catalog.Catalog, query, ast *qgm.Graph, opts Options) *Matcher {
	return &Matcher{cat: cat, opts: opts, eg: query, rg: ast, memo: map[pairKey]*Match{}}
}

// reject records a failed candidate pair and returns nil, for use as a
// one-line failure return in the pattern implementations.
func (m *Matcher) reject(e, r *qgm.Box, format string, args ...any) *Match {
	m.obsv.Add(CtrMatchRejects, 1)
	if m.trace {
		m.log = append(m.log, TraceEntry{
			Subsumee: e.Label, Subsumer: r.Label,
			Reason: fmt.Sprintf(format, args...),
		})
	}
	return nil
}

func (m *Matcher) accept(match *Match) *Match {
	if match != nil {
		m.obsv.Add(CtrMatchAccepts, 1)
		if m.obsv.Enabled() && match.Pattern != "" {
			m.obsv.Add("core.match.accept."+match.Pattern, 1)
		}
	}
	if m.trace && match != nil {
		te := TraceEntry{
			Subsumee: match.Subsumee.Label, Subsumer: match.Subsumer.Label,
			Matched: true, Exact: match.Exact, Pattern: match.Pattern,
		}
		if match.Exact {
			te.Reason = "exact (projection only)"
		} else {
			kinds := make([]string, len(match.Stack))
			for i, b := range match.Stack {
				kinds[i] = b.Kind.String()
			}
			te.Reason = "compensation: " + strings.Join(kinds, " → ")
		}
		m.log = append(m.log, te)
	}
	return match
}

// RunCtx executes the navigator (§3) and returns every match whose subsumer
// is the AST's root box, i.e. the points where the whole AST can be
// substituted into the query. It is one nested sweep over both graphs'
// child-before-parent box lists, the query's outside, so a pair is tried
// only after every pair of its children: the match function runs once per
// pair, on a pair of leaves or a pair with at least one matched child pair,
// and sees all of its children's matches. When the context expires mid-sweep
// the navigator stops and returns the root matches established so far
// (matching is best-effort — a truncated search costs rewrite opportunities,
// never correctness).
func (m *Matcher) RunCtx(ctx context.Context) []*Match {
	done := ctx.Done()
	rBoxes := m.rg.Boxes()
	for _, e := range m.eg.Boxes() {
		for _, r := range rBoxes {
			select {
			case <-done:
				return m.rootMatches()
			default:
			}
			if !m.childMatched(e, r) {
				continue
			}
			if match := m.matchPair(e, r); match != nil {
				m.memo[pairKey{e.ID, r.ID}] = match
			}
		}
	}
	return m.rootMatches()
}

// childMatched reports whether a pair is worth trying: both boxes are leaves,
// or some pair of their children matched.
func (m *Matcher) childMatched(e, r *qgm.Box) bool {
	if len(e.Quantifiers) == 0 && len(r.Quantifiers) == 0 {
		return true
	}
	for _, qe := range e.Quantifiers {
		for _, qr := range r.Quantifiers {
			if m.matchOf(qe.Box, qr.Box) != nil {
				return true
			}
		}
	}
	return false
}

// rootMatches collects the established matches whose subsumer is the AST's
// root box, in deterministic order.
func (m *Matcher) rootMatches() []*Match {
	var out []*Match
	for k, match := range m.memo {
		if k.r == m.rg.Root.ID {
			out = append(out, match)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subsumee.ID < out[j].Subsumee.ID })
	return out
}

// matchOf returns the established match for a box pair, if any.
func (m *Matcher) matchOf(e, r *qgm.Box) *Match {
	return m.memo[pairKey{e.ID, r.ID}]
}

// matchPair is the match function (§3): it applies the two universal
// conditions — same box type, and at least one pair of matching children —
// then dispatches to the pattern implementations. It returns nil when no
// match can be established (the conditions are sufficient, not necessary).
func (m *Matcher) matchPair(e, r *qgm.Box) *Match {
	if e.Kind != r.Kind {
		return m.reject(e, r, "universal condition 2: box types differ (%s vs %s)", e.Kind, r.Kind)
	}
	switch e.Kind {
	case qgm.BaseTableBox:
		if e.Table.Name != r.Table.Name {
			return nil // different tables: not worth tracing
		}
		colMap := make([]int, len(e.Cols))
		for i := range colMap {
			colMap[i] = i
		}
		return m.accept(&Match{Subsumee: e, Subsumer: r, Exact: true, ColMap: colMap, Pattern: "base table"})
	case qgm.GroupByBox:
		return m.accept(m.matchGroupBy(e, r))
	default: // qgm.SelectBox
		return m.accept(m.matchSelect(e, r))
	}
}

// newCompBox allocates a compensation box in the query graph.
func (m *Matcher) newCompBox(kind qgm.BoxKind, label string) *qgm.Box {
	return m.eg.NewBox(kind, label)
}

// newQuant allocates a compensation quantifier in the query graph.
func (m *Matcher) newQuant(kind qgm.QuantKind, child *qgm.Box, alias string) *qgm.Quantifier {
	return m.eg.NewQuantifier(kind, child, alias)
}
