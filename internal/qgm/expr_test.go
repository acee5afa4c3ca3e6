package qgm

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// exprFixture builds a quantifier over a two-column producer for expression
// tests.
func exprFixture() (*Quantifier, *ColRef, *ColRef) {
	box := &Box{ID: 1, Kind: SelectBox, Label: "P",
		Cols: []QCL{{Name: "x"}, {Name: "y"}}}
	q := &Quantifier{ID: 1, Box: box}
	return q, &ColRef{Q: q, Col: 0}, &ColRef{Q: q, Col: 1}
}

func TestExprStringRendering(t *testing.T) {
	q, x, y := exprFixture()
	_ = q
	cases := []struct {
		e    Expr
		want string
	}{
		{x, "q1.x"},
		{NewConst(sqltypes.NewInt(5)), "5"},
		{NewConst(sqltypes.NewString("a'b")), "'a''b'"},
		{&Call{Name: "year", Args: []Expr{x}}, "year(q1.x)"},
		{&Bin{Op: "+", L: x, R: y}, "(q1.x + q1.y)"},
		{&Not{E: x}, "(NOT q1.x)"},
		{&IsNull{E: x}, "(q1.x IS NULL)"},
		{&IsNull{E: x, Neg: true}, "(q1.x IS NOT NULL)"},
		{&Agg{Op: "count", Star: true}, "count(*)"},
		{&Agg{Op: "sum", Arg: x}, "sum(q1.x)"},
		{&Agg{Op: "count", Arg: x, Distinct: true}, "count(DISTINCT q1.x)"},
		{&Case{Whens: []CaseWhen{{Cond: x, Then: y}}, Else: x},
			"CASE WHEN q1.x THEN q1.y ELSE q1.x END"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestMapExprTopDownPrunes(t *testing.T) {
	_, x, y := exprFixture()
	e := &Bin{Op: "+", L: &Bin{Op: "*", L: x, R: y}, R: y}
	// Replace the whole multiplication; its children must not be visited.
	visited := 0
	out := MapExprTopDown(e, func(n Expr) (Expr, bool) {
		visited++
		if b, ok := n.(*Bin); ok && b.Op == "*" {
			return NewConst(sqltypes.NewInt(7)), true
		}
		return nil, false
	})
	if !strings.Contains(out.String(), "7") {
		t.Fatalf("replacement missing: %s", out.String())
	}
	// Visits: +, *, and the right y — but not the children of *.
	if visited != 3 {
		t.Fatalf("visited %d nodes, want 3", visited)
	}
}

func TestMapExprRebuildsCase(t *testing.T) {
	_, x, y := exprFixture()
	e := &Case{Whens: []CaseWhen{{Cond: x, Then: y}}, Else: x}
	out := MapExpr(e, func(n Expr) Expr {
		if c, ok := n.(*ColRef); ok && c.Col == 0 {
			return NewConst(sqltypes.NewInt(9))
		}
		return n
	})
	if got := out.String(); got != "CASE WHEN 9 THEN q1.y ELSE 9 END" {
		t.Fatalf("MapExpr over CASE: %s", got)
	}
}

func TestQuantifiersOfOrdering(t *testing.T) {
	boxA := &Box{ID: 10, Cols: []QCL{{Name: "a"}}}
	boxB := &Box{ID: 11, Cols: []QCL{{Name: "b"}}}
	q2 := &Quantifier{ID: 2, Box: boxA}
	q5 := &Quantifier{ID: 5, Box: boxB}
	e := &Bin{Op: "+", L: &ColRef{Q: q5, Col: 0}, R: &Bin{Op: "*",
		L: &ColRef{Q: q2, Col: 0}, R: &ColRef{Q: q5, Col: 0}}}
	qs := QuantifiersOf(e)
	if len(qs) != 2 || qs[0].ID != 2 || qs[1].ID != 5 {
		t.Fatalf("QuantifiersOf: %v", qs)
	}
}

func TestHasAggNested(t *testing.T) {
	_, x, _ := exprFixture()
	if !HasAgg(&Bin{Op: "+", L: &Agg{Op: "sum", Arg: x}, R: x}) {
		t.Fatal("nested aggregate not detected")
	}
	if HasAgg(&Bin{Op: "+", L: x, R: x}) {
		t.Fatal("false positive")
	}
}

func TestGraphTopology(t *testing.T) {
	cat := testCatalog(t)
	g := MustBuildSQL("select state, count(*) as c from trans, loc where flid = lid group by state", cat)
	leaves := g.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves: %d", len(leaves))
	}
	parents := g.Parents()
	// Each base table has exactly one consumer (the lower select box).
	for _, l := range leaves {
		if len(parents[l.ID]) != 1 {
			t.Fatalf("leaf %s consumers: %d", l.Label, len(parents[l.ID]))
		}
	}
	// Boxes() is bottom-up: children precede parents.
	pos := map[int]int{}
	for i, b := range g.Boxes() {
		pos[b.ID] = i
	}
	for _, b := range g.Boxes() {
		for _, q := range b.Quantifiers {
			if pos[q.Box.ID] >= pos[b.ID] {
				t.Fatalf("not bottom-up: %s before %s", b.Label, q.Box.Label)
			}
		}
	}
}

func TestGroupingColExprsAndKindStrings(t *testing.T) {
	cat := testCatalog(t)
	g := MustBuildSQL("select faid, flid, count(*) as c from trans group by faid, flid", cat)
	gb := g.Root.Child()
	exprs := gb.GroupingColExprs()
	if len(exprs) != 2 {
		t.Fatalf("grouping exprs: %d", len(exprs))
	}
	for _, k := range []BoxKind{BaseTableBox, SelectBox, GroupByBox} {
		if k.String() == "" || strings.HasPrefix(k.String(), "BoxKind") {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestInferTypeTable(t *testing.T) {
	cat := testCatalog(t)
	g := MustBuildSQL(`select tid + 1 as a, price * 2 as b, qty < 3 as c,
		note is null as d, case when qty > 1 then 'x' else note end as e
		from trans`, cat)
	wantKinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindBool, sqltypes.KindBool, sqltypes.KindString}
	wantNullable := []bool{false, false, false, false, true}
	for i := range wantKinds {
		k, n := g.Root.OutputType(i)
		if k != wantKinds[i] || n != wantNullable[i] {
			t.Errorf("col %d: (%v, %v), want (%v, %v)", i, k, n, wantKinds[i], wantNullable[i])
		}
	}
}
