package qgm

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
)

// BoxKind enumerates QGM box types.
type BoxKind uint8

const (
	// BaseTableBox is a leaf box wrapping a base (or materialized AST) table.
	BaseTableBox BoxKind = iota
	// SelectBox performs select-project-join: it joins its ForEach children,
	// applies predicates, and computes scalar output expressions.
	SelectBox
	// GroupByBox groups its single child's rows and computes aggregates,
	// possibly over multiple grouping sets (canonicalized supergroups).
	GroupByBox
)

// String names the kind.
func (k BoxKind) String() string {
	switch k {
	case BaseTableBox:
		return "BASE"
	case SelectBox:
		return "SELECT"
	case GroupByBox:
		return "GROUPBY"
	default:
		return fmt.Sprintf("BoxKind(%d)", uint8(k))
	}
}

// QuantKind distinguishes join operands from scalar-subquery children.
type QuantKind uint8

const (
	// ForEach is an ordinary join operand: the parent iterates its rows.
	ForEach QuantKind = iota
	// Scalar is a scalar-subquery child: it must produce at most one row,
	// whose single column value is available as a QNC (NULL when empty).
	Scalar
)

// Quantifier is an edge from a consumer box to a producer (child) box; its
// columns (QNCs) are the producer's output columns.
type Quantifier struct {
	ID    int
	Kind  QuantKind
	Box   *Box
	Alias string // original FROM alias where available, for SQL printing
}

// QCL is an output column of a box: a name plus the expression (over the
// box's QNCs) that computes it. Base-table boxes have nil Exprs.
type QCL struct {
	Name string
	Expr Expr
}

// Box is a QGM node.
type Box struct {
	ID    int
	Kind  BoxKind
	Label string // e.g. "Sel-1Q", "GB-2A"; informational

	// Table is set for BaseTableBox.
	Table *catalog.Table

	// Quantifiers are the edges to child boxes. SELECT boxes may have any
	// number (join operands and scalar subqueries); GROUP BY boxes have
	// exactly one ForEach quantifier.
	Quantifiers []*Quantifier

	// Cols are the output columns. For GroupByBox every column is either a
	// grouping column (listed in GroupBy) or an aggregate expression.
	Cols []QCL

	// Preds are the predicates (WHERE/HAVING conjuncts) of a SELECT box.
	Preds []Expr

	// Distinct marks a duplicate-eliminating SELECT box.
	Distinct bool

	// GroupBy lists the ordinals (into Cols) of the grouping columns of a
	// GROUP BY box, in grouping order. GroupingSets holds the canonicalized
	// supergroup: each set is a sorted list of positions into GroupBy. A
	// simple GROUP BY has exactly one set containing every position.
	GroupBy      []int
	GroupingSets [][]int

	// Regroup marks a GROUP BY box that re-aggregates already-aggregated
	// rows (a second-stage combiner built by the matcher's regrouping
	// compensation, §4.1.2 rules (a)–(g)). Faithful clones of query GROUP BY
	// boxes are not regroupings: they aggregate row-level values and may use
	// any aggregate. The distinction scopes the re-aggregation soundness
	// rules of internal/qgmcheck (Table 1: SUM over SUM, SUM over COUNT, …).
	Regroup bool
}

// Graph is a rooted QGM DAG plus ID allocation state.
type Graph struct {
	Root *Box
	Cat  *catalog.Catalog
	// Params holds, by slot, the statement literals BuildParams met (nil where
	// a literal token reached no expression, and on every other graph). Clone
	// shares them with the copy: a pin made through either is one pin.
	Params []*Param

	nextBoxID   int
	nextQuantID int
	baseBoxes   map[string]*Box
}

// NewGraph returns an empty graph bound to a catalog.
func NewGraph(cat *catalog.Catalog) *Graph {
	return &Graph{Cat: cat, nextBoxID: 1, nextQuantID: 1, baseBoxes: make(map[string]*Box)}
}

// BaseTableBox returns the (shared, per-graph) leaf box for a base table.
// Sharing one leaf per table gives the QGM its DAG shape: self-joins are two
// quantifiers over the same box.
func (g *Graph) BaseTableBox(t *catalog.Table) *Box {
	if b, ok := g.baseBoxes[t.Name]; ok {
		return b
	}
	b := g.NewBox(BaseTableBox, "Base-"+t.Name)
	b.Table = t
	for _, c := range t.Columns {
		b.Cols = append(b.Cols, QCL{Name: c.Name})
	}
	g.baseBoxes[t.Name] = b
	return b
}

// NewBox allocates a box in the graph.
func (g *Graph) NewBox(kind BoxKind, label string) *Box {
	b := &Box{ID: g.nextBoxID, Kind: kind, Label: label}
	g.nextBoxID++
	return b
}

// NewQuantifier allocates a quantifier edge to child.
func (g *Graph) NewQuantifier(kind QuantKind, child *Box, alias string) *Quantifier {
	q := &Quantifier{ID: g.nextQuantID, Kind: kind, Box: child, Alias: alias}
	g.nextQuantID++
	return q
}

// ColIndex returns the ordinal of an output column by name, or -1.
func (b *Box) ColIndex(name string) int {
	for i, c := range b.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Child returns the single child box of a GROUP BY box.
func (b *Box) Child() *Box {
	if len(b.Quantifiers) != 1 {
		panic(fmt.Sprintf("qgm: Child() on box %s with %d quantifiers", b.Label, len(b.Quantifiers)))
	}
	return b.Quantifiers[0].Box
}

// IsSimpleGroupBy reports whether a GROUP BY box has a single grouping set
// covering all grouping columns (i.e. no supergroup semantics).
func (b *Box) IsSimpleGroupBy() bool {
	return b.Kind == GroupByBox && len(b.GroupingSets) == 1 && len(b.GroupingSets[0]) == len(b.GroupBy)
}

// IsGroupCol reports whether output column col is a grouping column.
func (b *Box) IsGroupCol(col int) bool {
	for _, g := range b.GroupBy {
		if g == col {
			return true
		}
	}
	return false
}

// GroupingColExprs returns the grouping-column expressions in grouping order.
func (b *Box) GroupingColExprs() []Expr {
	out := make([]Expr, len(b.GroupBy))
	for i, g := range b.GroupBy {
		out[i] = b.Cols[g].Expr
	}
	return out
}

// AggCols returns the ordinals of the aggregate output columns.
func (b *Box) AggCols() []int {
	var out []int
	for i := range b.Cols {
		if !b.IsGroupCol(i) {
			out = append(out, i)
		}
	}
	return out
}

// Boxes returns every box reachable from the root in a deterministic
// (bottom-up, child-before-parent) order.
func (g *Graph) Boxes() []*Box {
	var out []*Box
	seen := map[int]bool{}
	var walk func(b *Box)
	walk = func(b *Box) {
		if b == nil || seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, q := range b.Quantifiers {
			walk(q.Box)
		}
		out = append(out, b)
	}
	walk(g.Root)
	return out
}

// Parents returns, for every box in the graph, the list of (parent box,
// quantifier) pairs that consume it.
func (g *Graph) Parents() map[int][]ParentEdge {
	out := map[int][]ParentEdge{}
	for _, b := range g.Boxes() {
		for _, q := range b.Quantifiers {
			out[q.Box.ID] = append(out[q.Box.ID], ParentEdge{Parent: b, Quant: q})
		}
	}
	return out
}

// ParentEdge is one consumer of a box.
type ParentEdge struct {
	Parent *Box
	Quant  *Quantifier
}

// Leaves returns the base-table boxes of the graph.
func (g *Graph) Leaves() []*Box {
	var out []*Box
	for _, b := range g.Boxes() {
		if b.Kind == BaseTableBox {
			out = append(out, b)
		}
	}
	return out
}

// OutputType infers the type and nullability of output column col.
func (b *Box) OutputType(col int) (sqltypes.Kind, bool) {
	switch b.Kind {
	case BaseTableBox:
		c := b.Table.Columns[col]
		return c.Type, c.Nullable
	case SelectBox:
		return inferType(b.Cols[col].Expr)
	case GroupByBox:
		k, nullable := inferType(b.Cols[col].Expr)
		// A grouping column is additionally nullable when some grouping set
		// omits it (grouped-out columns are NULL-padded).
		for pos, g := range b.GroupBy {
			if g != col {
				continue
			}
			for _, gs := range b.GroupingSets {
				if !containsInt(gs, pos) {
					nullable = true
					break
				}
			}
		}
		return k, nullable
	default:
		return sqltypes.KindNull, true
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// inferType computes (kind, nullable) for an expression. Unknown inputs
// default to (Null, true) conservatively.
func inferType(e Expr) (sqltypes.Kind, bool) {
	switch t := e.(type) {
	case *ColRef:
		if t.Q == nil || t.Q.Box == nil {
			return sqltypes.KindNull, true
		}
		k, n := t.Q.Box.OutputType(t.Col)
		if t.Q.Kind == Scalar {
			// An empty scalar subquery yields NULL.
			n = true
		}
		return k, n
	case *Const:
		return t.Kind(), t.IsNull()
	case *Call:
		switch t.Name {
		case "year", "month", "day":
			_, n := inferType(t.Args[0])
			return sqltypes.KindInt, n
		default:
			return sqltypes.KindNull, true
		}
	case *Bin:
		switch t.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			_, ln := inferType(t.L)
			_, rn := inferType(t.R)
			return sqltypes.KindBool, ln || rn
		case "||":
			_, ln := inferType(t.L)
			_, rn := inferType(t.R)
			return sqltypes.KindString, ln || rn
		default: // arithmetic
			lk, ln := inferType(t.L)
			rk, rn := inferType(t.R)
			if lk == sqltypes.KindFloat || rk == sqltypes.KindFloat {
				return sqltypes.KindFloat, ln || rn
			}
			return sqltypes.KindInt, ln || rn
		}
	case *Not:
		_, n := inferType(t.E)
		return sqltypes.KindBool, n
	case *IsNull:
		return sqltypes.KindBool, false
	case *Like:
		_, ln := inferType(t.E)
		_, rn := inferType(t.Pattern)
		return sqltypes.KindBool, ln || rn
	case *Agg:
		if t.Op == "count" {
			return sqltypes.KindInt, false
		}
		if t.Star {
			return sqltypes.KindInt, false
		}
		k, n := inferType(t.Arg)
		// Groups are never empty, so SUM/MIN/MAX over a non-nullable argument
		// is non-nullable within a GROUP BY box.
		return k, n
	case *Case:
		var kind sqltypes.Kind = sqltypes.KindNull
		nullable := t.Else == nil
		for _, w := range t.Whens {
			k, n := inferType(w.Then)
			if kind == sqltypes.KindNull {
				kind = k
			}
			nullable = nullable || n
		}
		if t.Else != nil {
			k, n := inferType(t.Else)
			if kind == sqltypes.KindNull {
				kind = k
			}
			nullable = nullable || n
		}
		return kind, nullable
	default:
		return sqltypes.KindNull, true
	}
}

// InferType exposes type inference for other packages.
func InferType(e Expr) (sqltypes.Kind, bool) { return inferType(e) }

// OutputTable builds a catalog.Table describing a box's output relation
// (used to materialize ASTs and to register derived tables).
func (b *Box) OutputTable(name string) *catalog.Table {
	t := &catalog.Table{Name: name}
	for i, c := range b.Cols {
		k, n := b.OutputType(i)
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: k, Nullable: n})
	}
	return t
}

// SortGroupingSets canonicalizes grouping sets: each set sorted ascending,
// sets deduplicated and ordered lexicographically.
func SortGroupingSets(sets [][]int) [][]int {
	cp := make([][]int, 0, len(sets))
	seen := map[string]bool{}
	for _, s := range sets {
		ss := append([]int(nil), s...)
		sort.Ints(ss)
		key := fmt.Sprint(ss)
		if seen[key] {
			continue
		}
		seen[key] = true
		cp = append(cp, ss)
	}
	sort.Slice(cp, func(i, j int) bool {
		a, b := cp[i], cp[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cp
}
