package parser

import (
	"strings"
	"testing"
)

// hugeFloat is a float literal past the largest float64.
var hugeFloat = "1" + strings.Repeat("0", 309) + ".0"

// MalformedSQL is one malformed script per error return of the parser, with
// the error ParseScript gives for it. FuzzParse seeds its corpus from it.
var MalformedSQL = []struct{ SQL, Err string }{
	{"select a\nfrom t\nwhere )", "parser: line 3 (offset 22): unexpected token ) in expression"},
	{"select a as 1 from t", "parser: line 1 (offset 12): expected alias after AS, got 1"},
	{"select a b from 1", "parser: line 1 (offset 16): expected table name, got 1"},
	{"select a from 'x'", "parser: line 1 (offset 14): expected table name, got 'x'"},
	{"select a from t group a", "parser: line 1 (offset 22): expected BY, got a"},
	{"select a from t having )", "parser: line 1 (offset 23): unexpected token ) in expression"},
	{"select a from t order a", "parser: line 1 (offset 22): expected BY, got a"},
	{"select a from (select from t)", "parser: line 1 (offset 22): unexpected token FROM in expression"},
	{"select a from (select a from t", "parser: line 1 (offset 30): expected \")\", got <eof>"},
	{"select a from t as 1", "parser: line 1 (offset 19): expected alias after AS, got 1"},
	{"select a from t group by rollup a", "parser: line 1 (offset 32): expected \"(\", got a"},
	{"select a from t group by cube()", "parser: line 1 (offset 30): unexpected token ) in expression"},
	{"select a from t group by grouping (a)", "parser: line 1 (offset 34): expected SETS, got ("},
	{"select a from t group by grouping sets a", "parser: line 1 (offset 39): expected \"(\", got a"},
	{"select a from t group by grouping sets((a,))", "parser: line 1 (offset 42): unexpected token ) in expression"},
	{"select a from t group by grouping sets((a) (b))", "parser: line 1 (offset 43): expected \")\", got ("},
	{"select a from t group by grouping sets((a b))", "parser: line 1 (offset 42): expected \")\", got b"},
	{"select a from t group by grouping sets(a, )", "parser: line 1 (offset 42): unexpected token ) in expression"},
	{"select a from t where a = 1 or )", "parser: line 1 (offset 31): unexpected token ) in expression"},
	{"select a from t where a = 1 and )", "parser: line 1 (offset 32): unexpected token ) in expression"},
	{"select a from t where not )", "parser: line 1 (offset 26): unexpected token ) in expression"},
	{"select a from t where a is not 1", "parser: line 1 (offset 31): expected NULL, got 1"},
	{"select a from t where a between ) and 2", "parser: line 1 (offset 32): unexpected token ) in expression"},
	{"select a from t where a between 1 or 2", "parser: line 1 (offset 34): expected AND, got OR"},
	{"select a from t where a between 1 and )", "parser: line 1 (offset 38): unexpected token ) in expression"},
	{"select a from t where a like )", "parser: line 1 (offset 29): unexpected token ) in expression"},
	{"select a from t where a in 1", "parser: line 1 (offset 27): expected \"(\", got 1"},
	{"select a from t where a in (1, )", "parser: line 1 (offset 31): unexpected token ) in expression"},
	{"select a from t where a in (1 2)", "parser: line 1 (offset 30): expected \")\", got 2"},
	{"select a + ) from t", "parser: line 1 (offset 11): unexpected token ) in expression"},
	{"select a * ) from t", "parser: line 1 (offset 11): unexpected token ) in expression"},
	{"select - ) from t", "parser: line 1 (offset 9): unexpected token ) in expression"},
	{"select date.1 from t", "parser: line 1 (offset 12): expected column name after date., got 1"},
	{"select case when ) then 1 end from t", "parser: line 1 (offset 17): unexpected token ) in expression"},
	{"select case when a 1 end from t", "parser: line 1 (offset 19): expected THEN, got 1"},
	{"select case when a then ) end from t", "parser: line 1 (offset 24): unexpected token ) in expression"},
	{"select case when a then 1 else ) end from t", "parser: line 1 (offset 31): unexpected token ) in expression"},
	{"select (select from t) from t", "parser: line 1 (offset 15): unexpected token FROM in expression"},
	{"select (select a from t from t", "parser: line 1 (offset 24): expected \")\", got FROM"},
	{"select t.1 from t", "parser: line 1 (offset 9): expected column name after \"t\"., got 1"},
	{"select count(* from t", "parser: line 1 (offset 15): expected \")\", got FROM"},
	{"select f(a, ) from t", "parser: line 1 (offset 12): unexpected token ) in expression"},
	{"select f(a from t", "parser: line 1 (offset 11): expected \")\", got FROM"},
	{"select () from t", "parser: line 1 (offset 8): unexpected token ) in expression"},
	{"select (a from t", "parser: line 1 (offset 10): expected \")\", got FROM"},
	{"select a from t; select", "parser: line 1 (offset 23): unexpected token <eof> in expression"},
	{";;select a from t;; selec", "parser: line 1 (offset 20): expected a statement, got selec"},
	{"load t from 'x'", "parser: line 1 (offset 5): expected TABLE, got t"},
	{"load table 1 from 'x'", "parser: line 1 (offset 11): expected table name, got 1"},
	{"load table t 'x'", "parser: line 1 (offset 13): expected FROM, got 'x'"},
	{"explain delete t", "parser: line 1 (offset 15): expected FROM, got t"},
	{"explain selec", "parser: line 1 (offset 8): expected SELECT, got selec"},
	{"create summary t as select a from t", "parser: line 1 (offset 15): expected TABLE, got t"},
	{"create summary table 1 as select a from t", "parser: line 1 (offset 21): expected summary table name, got 1"},
	{"create summary table s as selec", "parser: line 1 (offset 26): expected SELECT, got selec"},
	{"create tabel t (a int)", "parser: line 1 (offset 7): expected TABLE, got tabel"},
	{"create table 1 (a int)", "parser: line 1 (offset 13): expected table name, got 1"},
	{"create table t a int", "parser: line 1 (offset 15): expected \"(\", got a"},
	{"create table t (primary (a))", "parser: line 1 (offset 24): expected KEY, got ("},
	{"create table t (primary key a)", "parser: line 1 (offset 28): expected \"(\", got a"},
	{"create table t (unique a)", "parser: line 1 (offset 23): expected \"(\", got a"},
	{"create table t (foreign (a) references u (b))", "parser: line 1 (offset 24): expected KEY, got ("},
	{"create table t (foreign key a references u (b))", "parser: line 1 (offset 28): expected \"(\", got a"},
	{"create table t (foreign key (a) u (b))", "parser: line 1 (offset 32): expected REFERENCES, got u"},
	{"create table t (foreign key (a) references 1 (b))", "parser: line 1 (offset 43): expected parent table, got 1"},
	{"create table t (foreign key (a) references u b)", "parser: line 1 (offset 45): expected \"(\", got b"},
	{"create table t (1 int)", "parser: line 1 (offset 16): expected column name, got 1"},
	{"create table t (a 1)", "parser: line 1 (offset 18): expected column type, got 1"},
	{"create table t (a varchar(n))", "parser: line 1 (offset 26): expected length, got n"},
	{"create table t (a varchar(3)", "parser: line 1 (offset 28): expected \")\", got <eof>"},
	{"create table t (a varchar(3 4))", "parser: line 1 (offset 28): expected \")\", got 4"},
	{"create table t (a int not 1)", "parser: line 1 (offset 26): expected NULL, got 1"},
	{"create table t (a double, b boolean, c date, primary key (a, 1))", "parser: line 1 (offset 61): expected column name, got 1"},
	{"insert t values (1)", "parser: line 1 (offset 7): expected INTO, got t"},
	{"insert into 1 values (1)", "parser: line 1 (offset 12): expected table name, got 1"},
	{"insert into t values 1", "parser: line 1 (offset 21): expected \"(\", got 1"},
	{"insert into t values (1, )", "parser: line 1 (offset 25): unexpected token ) in expression"},
	{"insert into t values (1 2)", "parser: line 1 (offset 24): expected \")\", got 2"},
	{"delete t", "parser: line 1 (offset 7): expected FROM, got t"},
	{"delete from 1", "parser: line 1 (offset 12): expected table name, got 1"},
	{"delete from t where )", "parser: line 1 (offset 20): unexpected token ) in expression"},
	{"update 1 set a = 1", "parser: line 1 (offset 7): expected table name, got 1"},
	{"update t a = 1", "parser: line 1 (offset 9): expected SET, got a"},
	{"update t set 1 = 1", "parser: line 1 (offset 13): expected column name, got 1"},
	{"update t set a 1", "parser: line 1 (offset 15): expected \"=\", got 1"},
	{"update t set a = )", "parser: line 1 (offset 17): unexpected token ) in expression"},
	{"update t set a = 1 where )", "parser: line 1 (offset 25): unexpected token ) in expression"},
	{"select a from t )", "parser: line 1 (offset 16): expected \";\", got )"},
	{"select a from t order by )", "parser: line 1 (offset 25): unexpected token ) in expression"},
	{"select date 'x' from t", "parser: line 1 (offset 16): sqltypes: malformed date \"x\""},
	{"create table t (a int, primary key (a b))", "parser: line 1 (offset 38): expected \")\", got b"},
	{"'x", "parser: unterminated string literal at offset 0"},
	{"select " + hugeFloat + " from t", `parser: line 1 (offset 320): bad numeric literal "` + hugeFloat + `": strconv.ParseFloat: parsing "` + hugeFloat + `": value out of range`},
}

// TestErrorMessages parses each malformed script and checks the error it
// gives, position included.
func TestErrorMessages(t *testing.T) {
	for _, m := range MalformedSQL {
		_, err := ParseScript(m.SQL)
		if err == nil || err.Error() != m.Err {
			t.Errorf("ParseScript(%q):\n got %v\nwant %s", m.SQL, err, m.Err)
		}
	}
	for name, parse := range map[string]func(string) (any, error){
		"Parse":     func(src string) (any, error) { return Parse(src) },
		"ParseExpr": func(src string) (any, error) { return ParseExpr(src) },
	} {
		if _, err := parse("'x"); err == nil || err.Error() != "parser: unterminated string literal at offset 0" {
			t.Errorf("%s: %v", name, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse of a malformed query did not panic")
		}
	}()
	MustParse("select")
}
