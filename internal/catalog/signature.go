package catalog

import (
	"sort"
	"strings"
)

// This file is the candidate-pruning signature index. At AST compile time the
// rewriter computes a cheap Signature per AST and inserts it here; at rewrite
// time it computes the query's signature once and asks AdmitsAST for every
// registered AST before paying for a full bottom-up QGM match. Pruning is
// strictly conservative: every rule below refutes a *necessary* condition of
// the matching algorithm (see DESIGN.md §10 for the safety argument per rule),
// so a pruned AST is always one the full matcher would reject. An AST without
// an index entry is always admitted — the index is an accelerator, never a
// gate that could cost a legitimate rewrite.

// TableSet is a bitmap over catalog table IDs (assigned by AddTable in
// registration order and stable across DropTable/re-AddTable cycles, so
// re-materializing an AST does not shift other signatures).
type TableSet struct {
	bits []uint64
}

// Add inserts a table ID.
func (s *TableSet) Add(id int) {
	w := id / 64
	for len(s.bits) <= w {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << uint(id%64)
}

// Has reports membership.
func (s TableSet) Has(id int) bool {
	w := id / 64
	return w < len(s.bits) && s.bits[w]&(1<<uint(id%64)) != 0
}

// Remove deletes a table ID.
func (s *TableSet) Remove(id int) {
	w := id / 64
	if w < len(s.bits) {
		s.bits[w] &^= 1 << uint(id%64)
	}
}

// Empty reports whether the set has no members.
func (s TableSet) Empty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share a member.
func (s TableSet) Intersects(o TableSet) bool {
	n := len(s.bits)
	if len(o.bits) < n {
		n = len(o.bits)
	}
	for i := 0; i < n; i++ {
		if s.bits[i]&o.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Intersect returns s ∩ o as a new set.
func (s TableSet) Intersect(o TableSet) TableSet {
	n := len(s.bits)
	if len(o.bits) < n {
		n = len(o.bits)
	}
	out := TableSet{bits: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.bits[i] = s.bits[i] & o.bits[i]
	}
	return out
}

// Minus returns s \ o as a new set.
func (s TableSet) Minus(o TableSet) TableSet {
	out := TableSet{bits: make([]uint64, len(s.bits))}
	copy(out.bits, s.bits)
	for i := range out.bits {
		if i < len(o.bits) {
			out.bits[i] &^= o.bits[i]
		}
	}
	return out
}

// Clone returns an independent copy.
func (s TableSet) Clone() TableSet {
	out := TableSet{bits: make([]uint64, len(s.bits))}
	copy(out.bits, s.bits)
	return out
}

// IDs returns the member IDs in ascending order.
func (s TableSet) IDs() []int {
	var out []int
	for w, word := range s.bits {
		for b := 0; word != 0; b++ {
			if word&1 != 0 {
				out = append(out, w*64+b)
			}
			word >>= 1
		}
	}
	return out
}

// Signature is the cheap, query-graph-derived summary the index prunes on.
// It is plain data (no qgm dependency — qgm imports catalog, not the other
// way around); internal/core computes it from a compiled graph. The same
// struct describes both ASTs and queries; some fields are only meaningful on
// one side.
type Signature struct {
	// Tables is every base table referenced anywhere in the graph, including
	// under scalar-subquery quantifiers.
	Tables TableSet
	// Required is the base tables reachable from the root through ForEach
	// quantifiers only. For an AST these are the tables that must be matched
	// against the query or proven lossless-droppable; tables only under
	// Scalar quantifiers are exempt (uncorrelated scalar extras skip the
	// losslessness check entirely).
	Required TableSet
	// Columns is the sorted set of "table.column" names referenced anywhere.
	// Informational only (observability, EXPLAIN): column sets cannot prune
	// conservatively — see DESIGN.md §10.
	Columns []string
	// HasGroupBy: some GROUP BY box exists anywhere in the graph (including
	// scalar subqueries — any box can serve as a match subsumee).
	HasGroupBy bool
	// ReqGroupBy: some GROUP BY box is reachable from the root through
	// ForEach quantifiers only. On the AST side these boxes must all be
	// matched against query GROUP BY boxes (they can never be lossless
	// extras, which must be base tables).
	ReqGroupBy bool
	// ReqGBSumCount: every ForEach-reachable GROUP BY box exposes at least
	// one non-distinct SUM or COUNT output column (AST side of the
	// aggregate-derivability rule R4).
	ReqGBSumCount bool
	// AllGroupBySumCount: the graph has at least one GROUP BY box and every
	// one of them computes at least one non-distinct SUM or COUNT aggregate
	// (query side of rule R4).
	AllGroupBySumCount bool
	// UnsliceableCube: some ForEach-reachable GROUP BY box has more than one
	// grouping set and none of its cuboids passes the static §5.2
	// sliceability test — such an AST can never be sliced for any query
	// (rule R5).
	UnsliceableCube bool
}

// TableID returns the stable numeric ID of a table name. IDs are assigned by
// AddTable and survive DropTable, so a re-materialized AST output table keeps
// its ID.
func (c *Catalog) TableID(name string) (int, bool) {
	id, ok := c.tableIDs[strings.ToLower(name)]
	return id, ok
}

// SetASTSignature inserts (or replaces) the named AST's signature index
// entry.
func (c *Catalog) SetASTSignature(name string, sig *Signature) {
	name = strings.ToLower(name)
	c.sigs.Update(func(draft map[string]*Signature) { draft[name] = sig })
}

// ASTSignature returns the indexed signature for the named AST, if any.
func (c *Catalog) ASTSignature(name string) (*Signature, bool) {
	return c.sigs.Get(strings.ToLower(name))
}

// AdmitsAST is the index-side admission check consulted once per (query, AST)
// pair before full matching. It returns false only when the index can prove
// the AST cannot serve the query: its freshness forbids use (Usable), or its
// signature fails one of the conservative refutation rules against the query
// signature q. ASTs without an index entry, and nil query signatures, are
// always admitted.
func (c *Catalog) AdmitsAST(name string, q *Signature, allowStale bool) bool {
	name = strings.ToLower(name)
	sig, ok := c.sigs.Get(name)
	if !ok {
		return true
	}
	if !c.Usable(name, allowStale) {
		return false
	}
	return c.SignatureAdmits(sig, q)
}

// SignatureAdmits applies the conservative refutation rules R1–R5 (DESIGN.md
// §10) to an (AST signature, query signature) pair. Each rule negates a
// necessary condition of the full matcher, so false means "the matcher would
// certainly reject"; true means "maybe".
func (c *Catalog) SignatureAdmits(ast, q *Signature) bool {
	if ast == nil || q == nil {
		return true
	}
	// R1 — box kinds: every ForEach-reachable AST box must be matched against
	// a query box of the same kind (unmatched extras must be base tables), so
	// an AST carrying a required GROUP BY box cannot serve a GROUP BY-free
	// query.
	if ast.ReqGroupBy && !q.HasGroupBy {
		return false
	}
	// R2 — leaf overlap: every match bottoms out in at least one base-table
	// pair with equal table names, so disjoint table sets can never match.
	if !ast.Tables.Intersects(q.Tables) {
		return false
	}
	// R3 — extras must be droppable: every AST table reachable through
	// ForEach quantifiers is either matched (so it appears in the query) or
	// an extra that must be proven lossless via an RI constraint from an
	// already-safe table (§4.1.1 condition 1). A required table that is
	// neither in the query nor the FK-parent closure of the shared tables
	// refutes every possible match.
	if !c.extrasDroppable(ast, q) {
		return false
	}
	// R4 — aggregate derivability: non-distinct COUNT/SUM aggregates can only
	// be derived from a subsumer SUM or COUNT column (§4.2.2 maps both to
	// SUM upward; MIN/MAX/DISTINCT derive from grouping columns alone). If
	// every query GROUP BY box computes such an aggregate and some required
	// AST GROUP BY box has no non-distinct SUM/COUNT column, that box cannot
	// match any query GROUP BY box, so no match can complete.
	if ast.ReqGroupBy && !ast.ReqGBSumCount && q.AllGroupBySumCount {
		return false
	}
	// R5 — lattice sliceability: a required multi-grouping-set box whose
	// cuboids all fail the static §5.2 sliceability test can never be sliced
	// for any query.
	if ast.UnsliceableCube {
		return false
	}
	return true
}

// extrasDroppable implements rule R3's closure: starting from the tables the
// AST shares with the query (the only possible match anchors), a missing
// required table t is droppable when some RI constraint makes it the parent
// of an already-safe child table over non-nullable child columns — the
// necessary skeleton of LosslessJoin. Admitting t makes it a safe anchor for
// further extras. This over-approximates extraLossless (it ignores which
// predicates actually appear), which is the conservative direction.
func (c *Catalog) extrasDroppable(ast, q *Signature) bool {
	missing := ast.Required.Minus(q.Tables)
	if missing.Empty() {
		return true
	}
	safe := ast.Tables.Intersect(q.Tables)
	for changed := true; changed; {
		changed = false
		for _, t := range missing.IDs() {
			for _, e := range c.fkEdges {
				if e.parent == t && e.nonNullChild && safe.Has(e.child) {
					safe.Add(t)
					missing.Remove(t)
					changed = true
					break
				}
			}
		}
	}
	return missing.Empty()
}

// fkEdge caches one FK as table IDs plus whether every child column is
// non-nullable (a LosslessJoin precondition), so the R3 closure never touches
// table metadata.
type fkEdge struct {
	child, parent int
	nonNullChild  bool
}

// SortedColumns is a helper for deterministic signature rendering in
// diagnostics.
func SortedColumns(cols map[string]bool) []string {
	out := make([]string, 0, len(cols))
	for c := range cols {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
