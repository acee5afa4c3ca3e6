package core

// White-box unit tests for the matching internals: the deriver (minimal-QCL
// vs leaf-first), child assignment, output equivalence, aggregate rule
// helpers, and compensation utilities.

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

func starCat(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	workload.Schema(cat)
	return cat
}

func buildG(t testing.TB, cat *catalog.Catalog, sql string) *qgm.Graph {
	t.Helper()
	g, err := qgm.BuildSQL(sql, cat)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return g
}

// TestDeriverMinimalVsLeafFirst reproduces the §4.1.1 derivation choice on a
// constructed subsumer: value = qty*price available as one column.
func TestDeriverMinimalVsLeafFirst(t *testing.T) {
	cat := starCat(t)
	ast := buildG(t, cat, "select qty, price, disc, qty * price as value from trans")
	r := ast.Root
	qSub := &qgm.Quantifier{ID: 999, Box: r}

	// Target: qty*price*(1-disc) over r's own child quantifier.
	rq := r.Quantifiers[0]
	qty := &qgm.ColRef{Q: rq, Col: 5}
	price := &qgm.ColRef{Q: rq, Col: 6}
	disc := &qgm.ColRef{Q: rq, Col: 7}
	target := &qgm.Bin{Op: "*",
		L: &qgm.Bin{Op: "*", L: qty, R: price},
		R: &qgm.Bin{Op: "-", L: qgm.NewConst(sqltypes.NewInt(1)), R: disc},
	}

	countRefs := func(e qgm.Expr) int {
		n := 0
		qgm.WalkExpr(e, func(x qgm.Expr) bool {
			if c, ok := x.(*qgm.ColRef); ok && c.Q == qSub {
				n++
			}
			return true
		})
		return n
	}

	dMin := &deriver{eq: qgm.NewEquiv(), sources: subsumerSources(r, qSub, nil)}
	got, err := dMin.derive(target)
	if err != nil {
		t.Fatalf("minimal derive: %v", err)
	}
	if n := countRefs(got); n != 2 {
		t.Fatalf("minimal derivation should use 2 subsumer columns (value, disc), used %d: %s", n, got.String())
	}

	dLeaf := &deriver{eq: qgm.NewEquiv(), sources: subsumerSources(r, qSub, nil), leafFirst: true}
	got2, err := dLeaf.derive(target)
	if err != nil {
		t.Fatalf("leaf-first derive: %v", err)
	}
	if n := countRefs(got2); n != 3 {
		t.Fatalf("leaf-first derivation should use 3 columns, used %d: %s", n, got2.String())
	}
}

// TestDeriverRejoinPrecedence: a rejoin column reference stays a rejoin
// reference even when an equivalence class links it to a subsumer column —
// deriving it away would erase the join predicate (the NewQ1 regression).
func TestDeriverRejoinPrecedence(t *testing.T) {
	cat := starCat(t)
	ast := buildG(t, cat, "select flid, qty from trans")
	r := ast.Root
	rq := r.Quantifiers[0]
	qSub := &qgm.Quantifier{ID: 900, Box: r}

	locBox := &qgm.Box{ID: 500, Kind: qgm.BaseTableBox, Label: "Base-loc"}
	tbl, _ := cat.Table("loc")
	locBox.Table = tbl
	for _, c := range tbl.Columns {
		locBox.Cols = append(locBox.Cols, qgm.QCL{Name: c.Name})
	}
	locQ := &qgm.Quantifier{ID: 901, Box: locBox}
	newLocQ := &qgm.Quantifier{ID: 902, Box: locBox}

	eq := qgm.NewEquiv()
	flid := &qgm.ColRef{Q: rq, Col: 3} // trans.flid in base order? ensure via name below
	// locate flid ordinal
	transBox := rq.Box
	flid.Col = transBox.ColIndex("flid")
	lid := &qgm.ColRef{Q: locQ, Col: 0}
	eq.Union(flid, lid)

	d := &deriver{
		eq:        eq,
		sources:   subsumerSources(r, qSub, nil),
		rejoinMap: map[int]*qgm.Quantifier{locQ.ID: newLocQ},
	}
	pred := &qgm.Bin{Op: "=", L: flid, R: lid}
	got, err := d.derive(pred)
	if err != nil {
		t.Fatal(err)
	}
	b := got.(*qgm.Bin)
	lc, lok := b.L.(*qgm.ColRef)
	rc, rok := b.R.(*qgm.ColRef)
	if !lok || !rok {
		t.Fatalf("derived pred shape: %s", got.String())
	}
	if lc.Q == rc.Q {
		t.Fatalf("join predicate collapsed to a tautology: %s", got.String())
	}
	if rc.Q != newLocQ && lc.Q != newLocQ {
		t.Fatalf("rejoin side not remapped: %s", got.String())
	}
}

// TestAssignChildrenInjective: self-joins need an injective child pairing —
// both trans quantifiers of the query must map to distinct AST quantifiers
// for the match to go through.
func TestAssignChildrenInjective(t *testing.T) {
	cat := starCat(t)
	sql := "select a.tid as t1, b.tid as t2, b.qty as q2 from trans a, trans b where a.tid = b.tid"
	q := buildG(t, cat, sql)
	a := buildG(t, cat, sql)
	m := NewMatcher(cat, q, a, Options{})
	matches := m.Run()
	var root *Match
	for _, mm := range matches {
		if mm.Subsumee == q.Root {
			root = mm
		}
	}
	if root == nil {
		t.Fatalf("self-join query should match its own definition; matches: %d", len(matches))
	}
	assign := m.assignChildren(q.Root, a.Root)
	if len(assign.pairs) != 2 {
		t.Fatalf("expected 2 matched child pairs, got %d", len(assign.pairs))
	}
	if assign.pairs[0].rq == assign.pairs[1].rq {
		t.Fatal("assignment must be injective")
	}
}

// TestOutputEquivSelect: the aid↔faid example — a select box whose join
// predicate equates two outputs makes them interchangeable.
func TestOutputEquivSelect(t *testing.T) {
	cat := starCat(t)
	g := buildG(t, cat, "select faid, aid, qty from trans, acct where faid = aid")
	root := g.Root
	q := &qgm.Quantifier{ID: 800, Box: root}
	eq := outputEquiv(q)
	faid := &qgm.ColRef{Q: q, Col: 0}
	aid := &qgm.ColRef{Q: q, Col: 1}
	qty := &qgm.ColRef{Q: q, Col: 2}
	if !eq.Same(faid, aid) {
		t.Fatal("faid and aid should be equivalent through the join predicate")
	}
	if eq.Same(faid, qty) {
		t.Fatal("faid and qty must not be equivalent")
	}
}

// TestOutputEquivGroupBy: equivalence lifts through grouping columns.
func TestOutputEquivGroupBy(t *testing.T) {
	cat := starCat(t)
	g := buildG(t, cat, `select faid, aid, count(*) as c
		from trans, acct where faid = aid group by faid, aid`)
	gb := g.Root.Child()
	q := &qgm.Quantifier{ID: 801, Box: gb}
	eq := outputEquiv(q)
	if !eq.Same(&qgm.ColRef{Q: q, Col: 0}, &qgm.ColRef{Q: q, Col: 1}) {
		t.Fatal("grouping columns faid/aid should stay equivalent above the GROUP BY")
	}
}

// TestCountStarLike: COUNT(*) and COUNT of non-nullable columns are
// whole-group counts; COUNT(DISTINCT) and COUNT of nullable columns are not.
func TestCountStarLike(t *testing.T) {
	cat := starCat(t)
	g := buildG(t, cat, "select faid, count(*) as a, count(qty) as b, count(distinct qty) as c from trans group by faid")
	gb := g.Root.Child()
	var aggs []*qgm.Agg
	for _, i := range gb.AggCols() {
		aggs = append(aggs, gb.Cols[i].Expr.(*qgm.Agg))
	}
	if len(aggs) != 3 {
		t.Fatalf("agg count %d", len(aggs))
	}
	if !countStarLike(aggs[0], aggs[0].Arg) {
		t.Error("count(*)")
	}
	if !countStarLike(aggs[1], aggs[1].Arg) {
		t.Error("count(qty) with non-nullable qty")
	}
	if countStarLike(aggs[2], aggs[2].Arg) {
		t.Error("count(distinct qty) must not be whole-group")
	}
}

// TestIsConstRspace: only scalar-quantifier references count as constant.
func TestIsConstRspace(t *testing.T) {
	scalarQ := &qgm.Quantifier{ID: 1, Kind: qgm.Scalar}
	rowQ := &qgm.Quantifier{ID: 2, Kind: qgm.ForEach}
	c := qgm.NewConst(sqltypes.NewInt(1))
	if !isConstRspace(c) {
		t.Error("literal")
	}
	if !isConstRspace(&qgm.ColRef{Q: scalarQ, Col: 0}) {
		t.Error("scalar ref")
	}
	if isConstRspace(&qgm.ColRef{Q: rowQ, Col: 0}) {
		t.Error("row ref")
	}
	if isConstRspace(&qgm.Bin{Op: "+", L: c, R: &qgm.ColRef{Q: rowQ, Col: 0}}) {
		t.Error("mixed")
	}
	if isConstRspace(&qgm.Agg{Op: "count", Star: true}) {
		t.Error("aggregate")
	}
}

// TestProjectionOnly classifies compensation shapes.
func TestProjectionOnly(t *testing.T) {
	exact := &Match{Exact: true}
	if !projectionOnly(exact) {
		t.Error("exact match is projection-only")
	}
	q := &qgm.Quantifier{ID: 1}
	sel := &qgm.Box{Kind: qgm.SelectBox, Quantifiers: []*qgm.Quantifier{q},
		Cols: []qgm.QCL{{Name: "x", Expr: &qgm.ColRef{Q: q, Col: 0}}}}
	mm := &Match{Stack: []*qgm.Box{sel}, SubQ: q}
	mm.indexComp()
	if !projectionOnly(mm) {
		t.Error("bare projection")
	}
	sel.Preds = []qgm.Expr{qgm.NewConst(sqltypes.NewBool(true))}
	if projectionOnly(mm) {
		t.Error("predicated compensation is not projection-only")
	}
}
