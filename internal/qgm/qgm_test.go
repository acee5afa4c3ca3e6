package qgm

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/parser"
	"repro/internal/sqltypes"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	c.MustAddTable(&catalog.Table{
		Name: "trans",
		Columns: []catalog.Column{
			{Name: "tid", Type: sqltypes.KindInt},
			{Name: "faid", Type: sqltypes.KindInt},
			{Name: "flid", Type: sqltypes.KindInt},
			{Name: "date", Type: sqltypes.KindDate},
			{Name: "qty", Type: sqltypes.KindInt},
			{Name: "price", Type: sqltypes.KindFloat},
			{Name: "note", Type: sqltypes.KindString, Nullable: true},
		},
		PrimaryKey: []string{"tid"},
	})
	c.MustAddTable(&catalog.Table{
		Name: "loc",
		Columns: []catalog.Column{
			{Name: "lid", Type: sqltypes.KindInt},
			{Name: "state", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"lid"},
	})
	return c
}

func build(t testing.TB, sql string) *Graph {
	t.Helper()
	g, err := BuildSQL(sql, testCatalog(t))
	if err != nil {
		t.Fatalf("BuildSQL(%q): %v", sql, err)
	}
	return g
}

func TestBuildPlainSelect(t *testing.T) {
	g := build(t, "select tid, qty + 1 as q1 from trans where qty > 2")
	root := g.Root
	if root.Kind != SelectBox {
		t.Fatalf("root kind %v", root.Kind)
	}
	if len(root.Cols) != 2 || root.Cols[0].Name != "tid" || root.Cols[1].Name != "q1" {
		t.Fatalf("cols: %+v", root.Cols)
	}
	if len(root.Preds) != 1 {
		t.Fatalf("preds: %v", root.Preds)
	}
	if len(g.Boxes()) != 2 { // base + select
		t.Fatalf("box count %d", len(g.Boxes()))
	}
}

func TestBuildAggBlockShape(t *testing.T) {
	g := build(t, `select faid, count(*) as cnt from trans
		where qty > 1 group by faid having count(*) > 5`)
	boxes := g.Boxes()
	if len(boxes) != 4 { // base, lower select, group by, upper select
		t.Fatalf("box count %d:\n%s", len(boxes), g.Dump())
	}
	root := g.Root
	if root.Kind != SelectBox || len(root.Preds) != 1 {
		t.Fatalf("root: %+v", root)
	}
	gb := root.Child()
	if gb.Kind != GroupByBox || len(gb.GroupBy) != 1 || !gb.IsSimpleGroupBy() {
		t.Fatalf("gb: %+v", gb)
	}
	lower := gb.Child()
	if lower.Kind != SelectBox || len(lower.Preds) != 1 {
		t.Fatalf("lower: %+v", lower)
	}
}

func TestBuildStarExpansion(t *testing.T) {
	g := build(t, "select * from loc")
	if len(g.Root.Cols) != 2 {
		t.Fatalf("star expansion: %+v", g.Root.Cols)
	}
}

func TestBuildGroupByAlias(t *testing.T) {
	g := build(t, "select year(date) as y, count(*) as c from trans group by y")
	gb := g.Root.Child()
	if len(gb.GroupBy) != 1 {
		t.Fatalf("alias grouping failed:\n%s", g.Dump())
	}
	if gb.Cols[0].Name != "y" {
		t.Fatalf("grouping column name %q", gb.Cols[0].Name)
	}
}

func TestBuildSharedAggregate(t *testing.T) {
	// count(*) appears in the select list and HAVING: one aggregate column.
	g := build(t, "select faid, count(*) as c from trans group by faid having count(*) > 2")
	gb := g.Root.Child()
	if len(gb.Cols) != 2 {
		t.Fatalf("aggregate dedup failed: %+v", gb.Cols)
	}
}

func TestBuildAvgCanonicalization(t *testing.T) {
	g := build(t, "select faid, avg(qty) as a from trans group by faid")
	gb := g.Root.Child()
	// AVG compiles into SUM and COUNT aggregate columns.
	var ops []string
	for _, i := range gb.AggCols() {
		ops = append(ops, gb.Cols[i].Expr.(*Agg).Op)
	}
	if len(ops) != 2 || !(ops[0] == "sum" && ops[1] == "count") {
		t.Fatalf("avg canonicalization: %v", ops)
	}
	if _, ok := g.Root.Cols[1].Expr.(*Bin); !ok {
		t.Fatalf("avg output should be a division: %s", g.Root.Cols[1].Expr.String())
	}
}

func TestBuildGroupingSetsCanonical(t *testing.T) {
	g := build(t, `select faid, flid, count(*) as c from trans
		group by grouping sets((faid, flid), (faid), ())`)
	gb := g.Root.Child()
	if len(gb.GroupingSets) != 3 {
		t.Fatalf("sets: %v", gb.GroupingSets)
	}
	g2 := build(t, "select faid, flid, count(*) as c from trans group by rollup(faid, flid)")
	gb2 := g2.Root.Child()
	if len(gb2.GroupingSets) != 3 {
		t.Fatalf("rollup sets: %v", gb2.GroupingSets)
	}
	// rollup(a,b) ≡ gs((a,b),(a),()).
	for i := range gb.GroupingSets {
		if len(gb.GroupingSets[i]) != len(gb2.GroupingSets[i]) {
			t.Fatalf("rollup ≠ explicit sets: %v vs %v", gb.GroupingSets, gb2.GroupingSets)
		}
	}
	g3 := build(t, "select faid, flid, count(*) as c from trans group by cube(faid, flid)")
	if len(g3.Root.Child().GroupingSets) != 4 {
		t.Fatalf("cube sets: %v", g3.Root.Child().GroupingSets)
	}
	// Cross product with a plain element.
	g4 := build(t, "select tid, faid, flid, count(*) as c from trans group by tid, cube(faid, flid)")
	if len(g4.Root.Child().GroupingSets) != 4 {
		t.Fatalf("mixed sets: %v", g4.Root.Child().GroupingSets)
	}
	for _, gs := range g4.Root.Child().GroupingSets {
		found := false
		for _, p := range gs {
			if p == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("tid missing from a set: %v", g4.Root.Child().GroupingSets)
		}
	}
}

func TestBuildDuplicateGroupingExprsDeduped(t *testing.T) {
	g := build(t, "select faid, count(*) as c from trans group by faid, faid")
	if n := len(g.Root.Child().GroupBy); n != 1 {
		t.Fatalf("duplicate grouping exprs: %d", n)
	}
}

func TestBuildScalarSubqueryPlacement(t *testing.T) {
	g := build(t, "select tid, (select count(*) from loc) as n from trans")
	root := g.Root
	var scalars int
	for _, q := range root.Quantifiers {
		if q.Kind == Scalar {
			scalars++
		}
	}
	if scalars != 1 {
		t.Fatalf("scalar quantifiers: %d\n%s", scalars, g.Dump())
	}
	// In an aggregated block the scalar subquery attaches to the upper box.
	g2 := build(t, "select faid, count(*) * (select count(*) from loc) as x from trans group by faid")
	var upperScalars int
	for _, q := range g2.Root.Quantifiers {
		if q.Kind == Scalar {
			upperScalars++
		}
	}
	if upperScalars != 1 {
		t.Fatalf("scalar on upper box: %d\n%s", upperScalars, g2.Dump())
	}
}

func TestBuildErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"select nope from trans",
		"select tid from nope",
		"select t.tid from trans",                                   // unknown qualifier
		"select lid from trans, loc, loc",                           // duplicate alias
		"select qty from trans group by faid",                       // not grouped
		"select faid, qty + count(*) as x from trans group by faid", // qty not grouped
		"select count(count(*)) as x from trans",                    // nested aggregate
		"select * from trans group by faid",                         // star with group by
		"select tid from trans having tid > 1",                      // having without aggregation
		"select (select tid, qty from trans) as s from loc",         // 2-column scalar subquery
		"select unknownfunc(tid) from trans",
		"select sum(*) from trans",
	}
	for _, sql := range bad {
		if _, err := BuildSQL(sql, cat); err == nil {
			t.Errorf("BuildSQL(%q) should fail", sql)
		}
	}
}

func TestBuildAliasScoping(t *testing.T) {
	g := build(t, "select a.tid from trans a, trans b where a.tid = b.tid")
	if len(g.Root.Quantifiers) != 2 {
		t.Fatalf("self join quantifiers: %d", len(g.Root.Quantifiers))
	}
	// Both quantifiers share one base box (QGM is a DAG).
	if g.Root.Quantifiers[0].Box != g.Root.Quantifiers[1].Box {
		t.Fatal("self-join must share the base-table box")
	}
	if _, err := BuildSQL("select tid from trans a, trans b", testCatalog(t)); err == nil {
		t.Error("ambiguous tid accepted")
	}
}

func TestOutputTableTypes(t *testing.T) {
	g := build(t, `select faid, year(date) as y, count(*) as cnt, sum(price) as s, max(note) as mn
		from trans group by faid, year(date)`)
	tab := g.Root.OutputTable("astx")
	wantKinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString}
	for i, w := range wantKinds {
		if tab.Columns[i].Type != w {
			t.Errorf("col %d type %v, want %v", i, tab.Columns[i].Type, w)
		}
	}
	if tab.Columns[0].Nullable || tab.Columns[2].Nullable {
		t.Error("faid/cnt must be non-nullable")
	}
	if !tab.Columns[4].Nullable {
		t.Error("max(nullable) must be nullable")
	}
}

func TestGroupingColumnNullabilityInCube(t *testing.T) {
	g := build(t, "select faid, flid, count(*) as c from trans group by grouping sets((faid), (flid))")
	gb := g.Root.Child()
	if k, n := gb.OutputType(0); k != sqltypes.KindInt || !n {
		t.Fatalf("grouped-out column must be nullable: kind=%v nullable=%v", k, n)
	}
}

func TestExprEqualCommutativityAndFlip(t *testing.T) {
	g := build(t, "select tid from trans where faid = flid and qty + 1 > 2")
	sel := g.Root
	q := sel.Quantifiers[0]
	a := &ColRef{Q: q, Col: 1}
	b := &ColRef{Q: q, Col: 2}
	e1 := &Bin{Op: "+", L: a, R: b}
	e2 := &Bin{Op: "+", L: b, R: a}
	if !ExprEqual(e1, e2, nil) {
		t.Error("+ not commutative")
	}
	lt := &Bin{Op: "<", L: a, R: b}
	gt := &Bin{Op: ">", L: b, R: a}
	if !ExprEqual(lt, gt, nil) {
		t.Error("a<b should equal b>a")
	}
	minus1 := &Bin{Op: "-", L: a, R: b}
	minus2 := &Bin{Op: "-", L: b, R: a}
	if ExprEqual(minus1, minus2, nil) {
		t.Error("- must not be commutative")
	}
	// Equivalence classes.
	eq := EquivFromPreds(sel.Preds)
	if !ExprEqual(a, b, eq) {
		t.Error("faid = flid predicate should unify the columns")
	}
	if ExprEqual(a, &ColRef{Q: q, Col: 0}, eq) {
		t.Error("tid is not equivalent to faid")
	}
}

func TestSubsumes(t *testing.T) {
	g := build(t, "select tid from trans")
	q := g.Root.Quantifiers[0]
	x := &ColRef{Q: q, Col: 4} // qty
	mk := func(op string, v int64) Expr {
		return &Bin{Op: op, L: x, R: NewConst(sqltypes.NewInt(v))}
	}
	cases := []struct {
		p1, p2 Expr
		want   bool
	}{
		{mk(">", 10), mk(">", 20), true},
		{mk(">", 20), mk(">", 10), false},
		{mk(">", 10), mk(">", 10), true},
		{mk(">=", 10), mk(">", 10), true},
		{mk(">", 10), mk(">=", 10), false},
		{mk("<", 10), mk("<", 5), true},
		{mk("<", 5), mk("<", 10), false},
		{mk(">", 10), mk("=", 20), true},
		{mk(">", 10), mk("=", 5), false},
		{mk("<>", 7), mk("=", 8), true},
		{mk("<>", 7), mk("=", 7), false},
		{mk(">", 10), mk("<", 20), false},
		// Flipped constant side.
		{&Bin{Op: "<", L: NewConst(sqltypes.NewInt(10)), R: x}, mk(">", 20), true},
	}
	for i, c := range cases {
		if got := Subsumes(c.p1, c.p2, nil); got != c.want {
			t.Errorf("case %d: Subsumes(%s, %s) = %v, want %v", i, c.p1.String(), c.p2.String(), got, c.want)
		}
	}
}

func TestSplitAndAll(t *testing.T) {
	g := build(t, "select tid from trans where qty > 1 and price > 2 and faid > 3")
	if len(g.Root.Preds) != 3 {
		t.Fatalf("conjunct split: %d", len(g.Root.Preds))
	}
	joined := AndAll(g.Root.Preds)
	if len(SplitConjuncts(joined)) != 3 {
		t.Fatal("AndAll/SplitConjuncts round trip")
	}
	if AndAll(nil) != nil || OrAll(nil) != nil {
		t.Fatal("empty combinators must be nil")
	}
}

func TestSQLPrinterRoundTrip(t *testing.T) {
	queries := []string{
		"select tid, qty from trans where qty > 2",
		"select faid, count(*) as cnt from trans group by faid having count(*) > 1",
		"select year(date) as y, sum(qty * price) as v from trans where month(date) >= 6 group by year(date)",
		"select faid, flid, count(*) as c from trans group by grouping sets((faid, flid), (faid))",
		"select state, count(*) as c from trans, loc where flid = lid group by state",
		"select tid, (select count(*) from loc) as n from trans",
		"select y, count(*) as c from (select year(date) as y, faid from trans) d group by y",
	}
	cat := testCatalog(t)
	for _, sql := range queries {
		g1, err := BuildSQL(sql, cat)
		if err != nil {
			t.Errorf("build %q: %v", sql, err)
			continue
		}
		printed := g1.SQL()
		if _, err := BuildSQL(printed, cat); err != nil {
			t.Errorf("printed SQL does not re-parse:\n  orig: %s\n  printed: %s\n  err: %v", sql, printed, err)
		}
	}
}

func TestWalkAndMapExpr(t *testing.T) {
	e, err := parser.ParseExpr("1 + 2")
	if err != nil {
		t.Fatal(err)
	}
	_ = e // parser-level expr; qgm-level walkers tested below
	g := build(t, "select qty * price + 1 as x from trans")
	expr := g.Root.Cols[0].Expr
	count := 0
	WalkExpr(expr, func(Expr) bool { count++; return true })
	if count != 5 { // +, *, qty, price, 1
		t.Fatalf("WalkExpr visited %d nodes", count)
	}
	// MapExpr: replace constants with 0.
	mapped := MapExpr(expr, func(x Expr) Expr {
		if _, ok := x.(*Const); ok {
			return NewConst(sqltypes.NewInt(0))
		}
		return x
	})
	if !strings.Contains(mapped.String(), "+ 0") {
		t.Fatalf("MapExpr: %s", mapped.String())
	}
	if HasAgg(expr) {
		t.Fatal("no aggregate expected")
	}
	if len(ColRefs(expr)) != 2 {
		t.Fatal("ColRefs count")
	}
}

func TestSortGroupingSets(t *testing.T) {
	in := [][]int{{2, 0}, {0, 2}, {1}, {}, {1}}
	out := SortGroupingSets(in)
	if len(out) != 3 {
		t.Fatalf("dedup failed: %v", out)
	}
	if len(out[0]) != 0 || out[1][0] != 0 || out[2][0] != 1 {
		t.Fatalf("order: %v", out)
	}
}

func TestSubsumesInList(t *testing.T) {
	g := build(t, "select tid from trans")
	q := g.Root.Quantifiers[0]
	x := &ColRef{Q: q, Col: 4} // qty
	eqv := func(vals ...int64) Expr {
		var ors []Expr
		for _, v := range vals {
			ors = append(ors, &Bin{Op: "=", L: x, R: NewConst(sqltypes.NewInt(v))})
		}
		return OrAll(ors)
	}
	if !Subsumes(eqv(1, 2, 3), eqv(1, 2), nil) {
		t.Error("wider IN must subsume narrower")
	}
	if Subsumes(eqv(1, 2), eqv(1, 2, 3), nil) {
		t.Error("narrower IN must not subsume wider")
	}
	if !Subsumes(eqv(1, 2, 3), eqv(2), nil) {
		t.Error("IN must subsume a member equality")
	}
	// Different tested expressions never subsume.
	y := &ColRef{Q: q, Col: 0}
	other := &Bin{Op: "=", L: y, R: NewConst(sqltypes.NewInt(1))}
	if Subsumes(eqv(1, 2), other, nil) {
		t.Error("different expressions")
	}

	// AsInList reads tuples of point terms over one list of expressions;
	// Subsumes decides only the one-expression lists without IS NULL.
	isNull := func(e Expr) Expr { return &IsNull{E: e} }
	eq := func(e Expr, v int64) Expr { return &Bin{Op: "=", L: e, R: NewConst(sqltypes.NewInt(v))} }
	tuples := OrAll([]Expr{AndAll([]Expr{eq(x, 1), isNull(y)}), AndAll([]Expr{eq(x, 2), eq(y, 5)})})
	exprs, consts, ok := AsInList(tuples)
	if !ok || len(exprs) != 2 || exprs[0] != x || exprs[1] != y || len(consts) != 4 || consts[1] != nil || consts[3].Value().Int() != 5 {
		t.Errorf("AsInList(%s) = %v, %v, %v", tuples, exprs, consts, ok)
	}
	for _, p := range []Expr{
		OrAll([]Expr{AndAll([]Expr{eq(x, 1), isNull(y)}), AndAll([]Expr{eq(y, 5), eq(x, 2)})}), // another order
		OrAll([]Expr{eq(x, 1), AndAll([]Expr{eq(x, 2), eq(y, 5)})}),                            // another length
		&Bin{Op: "=", L: x, R: NewConst(sqltypes.Null)},
		&IsNull{E: x, Neg: true},
		&Bin{Op: "<", L: x, R: NewConst(sqltypes.NewInt(1))},
	} {
		if _, _, ok := AsInList(p); ok {
			t.Errorf("AsInList(%s) recognised", p)
		}
	}
	if Subsumes(eqv(1, 2, 3), OrAll([]Expr{eqv(1, 2), isNull(x)}), nil) || Subsumes(tuples, tuples.(*Bin).L, nil) {
		t.Error("an IS NULL term or a second expression is not Subsumes' IN list")
	}
}
