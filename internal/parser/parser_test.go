package parser

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b2 FROM t WHERE x >= 10.5 AND name = 'O''Hara' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b2", "FROM", "t", "WHERE", "x", ">=", "10.5", "AND", "name", "=", "O'Hara", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(texts), len(want), texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[9] != TokNumber || kinds[13] != TokString {
		t.Errorf("kinds wrong: %v", kinds)
	}
}

func TestLexCaseFolding(t *testing.T) {
	toks, _ := Lex("SeLeCt FooBar")
	if toks[0].Text != "SELECT" || toks[1].Text != "foobar" {
		t.Fatalf("folding wrong: %v %v", toks[0], toks[1])
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := Lex(`"MixedCase"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "MixedCase" {
		t.Fatalf("quoted ident: %v", toks[0])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a @ b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexNotEqualsAlias(t *testing.T) {
	toks, _ := Lex("a != b")
	if toks[1].Text != "<>" {
		t.Fatalf("!= should normalize to <>, got %q", toks[1].Text)
	}
}

// TestTemplate: a statement's template is its tokens with the number and
// string literals replaced by typed slots, and the literal vector holds their
// values in token order — the order the parser numbers its Lit nodes in.
func TestTemplate(t *testing.T) {
	str, num, flt := sqltypes.NewString, sqltypes.NewInt, sqltypes.NewFloat
	for _, c := range []struct {
		in, want string
		lits     []sqltypes.Value
	}{
		{"SELECT  X\n FROM t", "SELECT x FROM t", nil},
		{"select x from T where s = 'CA' and n > 10",
			"SELECT x FROM t WHERE s = ?string AND n > ?int", []sqltypes.Value{str("CA"), num(10)}},
		{"select 3 from t", "SELECT ?int FROM t", []sqltypes.Value{num(3)}},
		{"select 3.5 from t", "SELECT ?float FROM t", []sqltypes.Value{flt(3.5)}},
		{"select '3' from t", "SELECT ?string FROM t", []sqltypes.Value{str("3")}},
		{"select -5 from t", "SELECT - ?int FROM t", []sqltypes.Value{num(5)}},
		{"select x from t where d > DATE '1991-02-03'",
			"SELECT x FROM t WHERE d > DATE ?string", []sqltypes.Value{str("1991-02-03")}},
		{"select null, true, FALSE from t", "SELECT NULL , TRUE , FALSE FROM t", nil},
		{"select 'O''Hara' from t", "SELECT ?string FROM t", []sqltypes.Value{str("O'Hara")}},
		{"select x -- it's a comment, 'quoted' 7\nfrom t where y = 1",
			"SELECT x FROM t WHERE y = ?int", []sqltypes.Value{num(1)}},
		{`select "Foo" from t`, `SELECT "Foo" FROM t`, nil},
		{`select "foo" from t`, `SELECT "foo" FROM t`, nil},
		{`select Foo from t`, `SELECT foo FROM t`, nil},
		{`select "a b" from t`, `SELECT "a b" FROM t`, nil},
		{"select x from t where a != 1;", "SELECT x FROM t WHERE a <> ?int ;", []sqltypes.Value{num(1)}},
	} {
		got, lits, err := Template(c.in)
		if err != nil {
			t.Errorf("Template(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Template(%q) = %q, want %q", c.in, got, c.want)
		}
		if len(lits) != len(c.lits) {
			t.Errorf("Template(%q): literals %v, want %v", c.in, lits, c.lits)
			continue
		}
		for i := range lits {
			if !sqltypes.Identical(lits[i], c.lits[i]) {
				t.Errorf("Template(%q): literal %d = %v, want %v", c.in, i, lits[i], c.lits[i])
			}
		}
	}

	// Literal contents stay significant, in the vector rather than the key.
	_, a, _ := Template("select 'CA' from t")
	_, b, _ := Template("select 'ca' from t")
	if sqltypes.Identical(a[0], b[0]) {
		t.Error("literal case folded away")
	}

	// A number no literal can carry is the parse error it always was.
	const big = "select x from t where n > 99999999999999999999"
	_, _, terr := Template(big)
	_, perr := Parse(big)
	if terr == nil || perr == nil || !strings.Contains(perr.Error(), `bad integer literal "99999999999999999999"`) ||
		!strings.Contains(perr.Error(), terr.Error()) {
		t.Errorf("overflowing literal: Template %v, Parse %v", terr, perr)
	}
	if _, _, err := Template("select 'open from t"); err == nil {
		t.Error("an unterminated string has a template")
	}
}

// TestLitParamsFollowTheLexer: every Lit read from a literal token carries the
// token's number, so lits[Param-1] of the text's Template is its value — as it
// stood, or, where the parser computed Val from it, marked Pinned.
func TestLitParamsFollowTheLexer(t *testing.T) {
	const src = "select a + 1, 'x' from t where d > DATE '1991-02-03' and b in (2, -3.5) and c is null order by 9"
	_, lits, err := Template(src)
	if err != nil {
		t.Fatal(err)
	}
	stmt := MustParse(src)
	var got []*Lit
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Lit:
			got = append(got, x)
		case *BinExpr:
			walk(x.L)
			walk(x.R)
		case *InExpr:
			walk(x.E)
			for _, i := range x.List {
				walk(i)
			}
		case *IsNullExpr:
			walk(x.E)
		}
	}
	for _, it := range stmt.Items {
		walk(it.Expr)
	}
	walk(stmt.Where)
	walk(stmt.OrderBy[0].Expr)
	if len(got) != len(lits) || len(lits) != 6 {
		t.Fatalf("%d Lit nodes, %d literals, want 6 and 6", len(got), len(lits))
	}
	for i, l := range got {
		if l.Param != i+1 {
			t.Errorf("Lit %d (%s) has Param %d", i, l.SQL(), l.Param)
		}
		computed := i == 2 || i == 4 // the DATE and the folded minus
		if l.Pinned != computed {
			t.Errorf("Lit %d (%s): Pinned = %t", i, l.SQL(), l.Pinned)
		}
		if !computed && !sqltypes.Identical(l.Val, lits[i]) {
			t.Errorf("Lit %d = %v, literal vector has %v", i, l.Val, lits[i])
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := MustParse("select a, b as bb, a+1 from t where a > 1")
	if len(s.Items) != 3 || s.Items[1].Alias != "bb" {
		t.Fatalf("items: %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Table != "t" {
		t.Fatalf("from: %+v", s.From)
	}
	if s.Where == nil {
		t.Fatal("missing where")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*BinExpr)
	if b.Op != "+" {
		t.Fatalf("top op = %s", b.Op)
	}
	if inner := b.R.(*BinExpr); inner.Op != "*" {
		t.Fatalf("* must bind tighter: %s", e.SQL())
	}

	e, _ = ParseExpr("a or b and c")
	if e.(*BinExpr).Op != "OR" {
		t.Fatalf("AND must bind tighter than OR: %s", e.SQL())
	}
	e, _ = ParseExpr("not a = b")
	if _, ok := e.(*UnaryExpr); !ok {
		t.Fatalf("NOT applies to comparison: %s", e.SQL())
	}
}

func TestParseComparisonChainRejected(t *testing.T) {
	if _, err := ParseExpr("a < b < c"); err == nil {
		t.Fatal("comparison chains are not SQL")
	}
}

func TestParseLiterals(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"42":                sqltypes.NewInt(42),
		"-7":                sqltypes.NewInt(-7),
		"2.5":               sqltypes.NewFloat(2.5),
		"'hi'":              sqltypes.NewString("hi"),
		"NULL":              sqltypes.Null,
		"TRUE":              sqltypes.NewBool(true),
		"DATE '1991-04-12'": sqltypes.NewDate(1991, 4, 12),
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		lit, ok := e.(*Lit)
		if !ok {
			t.Errorf("ParseExpr(%q) = %T, want literal", src, e)
			continue
		}
		if !sqltypes.Identical(lit.Val, want) && !(lit.Val.IsNull() && want.IsNull()) {
			t.Errorf("ParseExpr(%q) = %v, want %v", src, lit.Val, want)
		}
	}
}

func TestDateAsColumnName(t *testing.T) {
	s := MustParse("select year(date), t.date from trans t where date > DATE '1990-01-01'")
	if len(s.Items) != 2 {
		t.Fatal("want two items")
	}
	fc := s.Items[0].Expr.(*FuncCall)
	if c, ok := fc.Args[0].(*ColRef); !ok || c.Name != "date" {
		t.Fatalf("year(date) arg: %v", fc.Args[0])
	}
	if c := s.Items[1].Expr.(*ColRef); c.Qualifier != "t" || c.Name != "date" {
		t.Fatalf("qualified date: %+v", c)
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("select count(*), count(distinct x), sum(x*y), min(x), avg(x) from t group by z")
	fc := s.Items[0].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "count" {
		t.Fatalf("count(*): %+v", fc)
	}
	fc = s.Items[1].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Fatalf("count(distinct): %+v", fc)
	}
}

func TestParseGroupingVariants(t *testing.T) {
	s := MustParse("select a, count(*) from t group by rollup(a, b), c")
	if len(s.GroupBy) != 2 {
		t.Fatalf("grouping elems: %d", len(s.GroupBy))
	}
	if s.GroupBy[0].Kind != GroupRollup || len(s.GroupBy[0].Exprs) != 2 {
		t.Fatalf("rollup: %+v", s.GroupBy[0])
	}
	if s.GroupBy[1].Kind != GroupExpr {
		t.Fatalf("plain: %+v", s.GroupBy[1])
	}

	s = MustParse("select a, count(*) from t group by cube(a, b)")
	if s.GroupBy[0].Kind != GroupCube {
		t.Fatal("cube")
	}

	s = MustParse("select a, count(*) from t group by grouping sets((a, b), (a), b, ())")
	gs := s.GroupBy[0]
	if gs.Kind != GroupSets || len(gs.Sets) != 4 {
		t.Fatalf("grouping sets: %+v", gs)
	}
	if len(gs.Sets[0]) != 2 || len(gs.Sets[2]) != 1 || len(gs.Sets[3]) != 0 {
		t.Fatalf("set arities: %+v", gs.Sets)
	}
}

func TestParseSubqueries(t *testing.T) {
	s := MustParse(`select a, (select count(*) from u) as n
		from (select x as a from v) d
		where a > (select min(x) from v)`)
	if _, ok := s.Items[1].Expr.(*SubqueryExpr); !ok {
		t.Fatal("scalar subquery in select list")
	}
	if s.From[0].Subquery == nil || s.From[0].Alias != "d" {
		t.Fatalf("derived table: %+v", s.From[0])
	}
	cmp := s.Where.(*BinExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Fatal("scalar subquery in where")
	}
}

func TestParseBetweenInIsNull(t *testing.T) {
	s := MustParse(`select a from t
		where a between 1 and 10 and b in (1, 2, 3)
		and c is not null and d not between 5 and 6 and e not in (9)`)
	sql := s.SQL()
	for _, want := range []string{"BETWEEN", "IN (1, 2, 3)", "IS NOT NULL", "NOT BETWEEN", "NOT IN (9)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("round-trip missing %q: %s", want, sql)
		}
	}
}

func TestParseCase(t *testing.T) {
	e, err := ParseExpr("case when a > 1 then 'big' when a = 1 then 'one' else 'small' end")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case: %+v", c)
	}
	if _, err := ParseExpr("case else 1 end"); err == nil {
		t.Fatal("CASE without WHEN should fail")
	}
}

func TestParseOrderBy(t *testing.T) {
	s := MustParse("select a from t order by a desc, b")
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order by: %+v", s.OrderBy)
	}
}

func TestParseDistinct(t *testing.T) {
	if !MustParse("select distinct a from t").Distinct {
		t.Fatal("distinct flag")
	}
	if MustParse("select all a from t").Distinct {
		t.Fatal("ALL is not DISTINCT")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t group by",
		"select a from t trailing_ident extra",
		"select a from t; select b from u", // Parse (single) rejects two
		"select (select a from t from u",
		"select a from t group by rollup(a",
		"select f(a,) from t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Round-trip property: parse → SQL → parse → SQL is a fixpoint.
func TestRoundTripFixpoint(t *testing.T) {
	queries := []string{
		"select a, b as c from t where a > 1 and b < 2",
		"select count(*) as cnt from t group by a having count(*) > 10",
		"select year(date) as y, sum(q * p * (1 - d)) as v from t group by year(date)",
		"select a from t group by grouping sets((a, b), (a), ())",
		"select distinct a from t, u where t.x = u.y order by a desc",
		"select (select count(*) from u) as n from t",
		"select x from (select a as x from t) d where x in (1, 2)",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Errorf("parse %q: %v", q, err)
			continue
		}
		sql1 := s1.SQL()
		s2, err := Parse(sql1)
		if err != nil {
			t.Errorf("re-parse %q: %v", sql1, err)
			continue
		}
		if sql2 := s2.SQL(); sql1 != sql2 {
			t.Errorf("not a fixpoint:\n  %s\n  %s", sql1, sql2)
		}
	}
}

func TestParseScriptAndDDL(t *testing.T) {
	stmts, err := ParseScript(`
		create table t (a int not null, b varchar(10), d date,
		                primary key(a), unique(b),
		                foreign key (b) references u (k));
		create summary table s as select a, count(*) as c from t group by a;
		insert into t values (1, 'x', '1990-01-01'), (2, NULL, NULL);
		explain select a from t;
		select a from t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 5 {
		t.Fatalf("want 5 statements, got %d", len(stmts))
	}
	ct := stmts[0].(*CreateTableStmt)
	if ct.Name != "t" || len(ct.Columns) != 3 || !ct.Columns[0].NotNull || ct.Columns[1].NotNull {
		t.Fatalf("create table: %+v", ct)
	}
	if ct.Columns[2].Type != sqltypes.KindDate {
		t.Fatalf("date column type: %v", ct.Columns[2].Type)
	}
	if len(ct.PrimaryKey) != 1 || len(ct.Uniques) != 1 || len(ct.ForeignKeys) != 1 {
		t.Fatalf("constraints: %+v", ct)
	}
	if ct.ForeignKeys[0].ParentTable != "u" {
		t.Fatalf("fk: %+v", ct.ForeignKeys[0])
	}
	ca := stmts[1].(*CreateASTStmt)
	if ca.Name != "s" || ca.Query == nil {
		t.Fatalf("create summary table: %+v", ca)
	}
	ins := stmts[2].(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert: %+v", ins)
	}
	if _, ok := stmts[3].(*ExplainStmt); !ok {
		t.Fatal("explain")
	}
	if _, ok := stmts[4].(*SelectStmt); !ok {
		t.Fatal("select")
	}
}

func TestDDLSQLRendering(t *testing.T) {
	stmts, err := ParseScript(`create table t (a int not null, primary key(a))`)
	if err != nil {
		t.Fatal(err)
	}
	sql := stmts[0].SQL()
	if !strings.Contains(sql, "CREATE TABLE t") || !strings.Contains(sql, "PRIMARY KEY (a)") {
		t.Fatalf("rendering: %s", sql)
	}
	// Re-parse the rendering.
	if _, err := ParseScript(sql); err != nil {
		t.Fatalf("re-parse %q: %v", sql, err)
	}
}

func TestDDLErrors(t *testing.T) {
	bad := []string{
		"create table t (a unknowntype)",
		"create table t (a int",
		"create summary table s select a from t", // missing AS
		"insert into t (1)",                      // missing VALUES
		"insert into t values (a)",               // non-literal caught later, parser allows exprs
		"create view v as select 1 from t",       // unsupported verb
	}
	for _, src := range bad[:4] {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) should fail", src)
		}
	}
	if _, err := ParseScript(bad[5]); err == nil {
		t.Errorf("ParseScript(%q) should fail", bad[5])
	}
}

func TestParseLikeAndConcat(t *testing.T) {
	s := MustParse("select a || '-' || b as ab from t where a like 'x%' and b not like '_y'")
	sql := s.SQL()
	for _, want := range []string{"||", "LIKE 'x%'", "NOT LIKE '_y'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("round-trip missing %q: %s", want, sql)
		}
	}
	// || binds like addition: tighter than comparison.
	e, err := ParseExpr("a || b = c")
	if err != nil {
		t.Fatal(err)
	}
	cmp := e.(*BinExpr)
	if cmp.Op != "=" {
		t.Fatalf("comparison should be top: %s", e.SQL())
	}
	if inner := cmp.L.(*BinExpr); inner.Op != "||" {
		t.Fatalf("|| should bind tighter: %s", e.SQL())
	}
}

func TestParseLoadStatement(t *testing.T) {
	stmts, err := ParseScript("load table t from '/tmp/x.csv'; select a from t")
	if err != nil {
		t.Fatal(err)
	}
	ld := stmts[0].(*LoadStmt)
	if ld.Table != "t" || ld.Path != "/tmp/x.csv" {
		t.Fatalf("load: %+v", ld)
	}
	if ld.SQL() != "LOAD TABLE t FROM '/tmp/x.csv'" {
		t.Fatalf("render: %s", ld.SQL())
	}
	if _, err := ParseScript("load table t from 42"); err == nil {
		t.Fatal("unquoted path accepted")
	}
}
